"""``repro.obs`` — the unified telemetry subsystem.

One import point for every layer::

    from .. import obs                # or: from repro import obs

    with obs.span("compile.pass.ecp", cat="compile", layers=12):
        ...
    obs.inc("cache.program.miss")
    obs.observe("runtime.experiment_s", duration)

Span and metric **naming convention**: dotted lowercase
``layer.component.detail`` where layer is one of ``runtime``,
``compile``, ``engine``, ``serve``, ``cluster``, ``cache`` — see
docs/OBSERVABILITY.md.

Telemetry is **off by default**.  While disabled, ``span`` returns one
cached null context manager and the metric helpers return after a
single bool check — cheap enough to leave call sites unconditioned in
hot paths.  Enable with :func:`enable` (sets ``REPRO_TRACE`` /
``REPRO_METRICS`` so pool workers self-enable), `repro trace`, or any
``--trace`` CLI flag.
"""

from __future__ import annotations

import os

from .analyze import (
    CriticalPath,
    critical_path,
    critical_path_trace,
    diff_traces,
    self_time,
)
from .convert import (
    alert_events,
    engine_run_events,
    result_events,
    window_events,
)
from .metrics import (
    METRICS_ENV,
    MetricsRegistry,
    format_metrics,
    registry,
)
from .monitor import DEFAULT_DETECTORS, Detector, Monitor, registry_alerts
from .slo import (
    DEFAULT_BURN_RULES,
    AlertEvent,
    BurnRateRule,
    Hysteresis,
    SLOMonitor,
    SLOObjective,
)
from .trace import TRACE_ENV, TRACE_LIMIT_ENV, SpanRecord, Tracer, tracer

__all__ = [
    "AlertEvent",
    "BurnRateRule",
    "CriticalPath",
    "DEFAULT_BURN_RULES",
    "DEFAULT_DETECTORS",
    "Detector",
    "Hysteresis",
    "METRICS_ENV",
    "Monitor",
    "MetricsRegistry",
    "SLOMonitor",
    "SLOObjective",
    "SpanRecord",
    "TRACE_ENV",
    "TRACE_LIMIT_ENV",
    "Tracer",
    "alert_events",
    "critical_path",
    "critical_path_trace",
    "diff_traces",
    "disable",
    "enable",
    "enable_from_env",
    "enabled",
    "engine_run_events",
    "export_telemetry",
    "format_metrics",
    "inc",
    "ingest_telemetry",
    "instant",
    "observe",
    "registry",
    "registry_alerts",
    "result_events",
    "self_time",
    "set_gauge",
    "span",
    "tracer",
    "window_events",
]


# -- recording entry points (delegate to the process-global singletons) ----
span = tracer.span
instant = tracer.instant
inc = registry.inc
observe = registry.observe
set_gauge = registry.set_gauge


def enabled() -> bool:
    """True if either tracing or metrics is currently recording."""
    return tracer.active or registry.active


def enable(trace: bool = True, metrics: bool = True, fresh: bool = True) -> None:
    """Turn telemetry on in this process *and* its future pool workers.

    Sets the ``REPRO_TRACE`` / ``REPRO_METRICS`` environment variables so
    worker processes (fork or spawn) self-enable via
    :func:`enable_from_env` and ship their buffers back.  ``fresh``
    clears any previously recorded spans/metrics first.
    """
    if fresh:
        tracer.reset()
        registry.reset()
    if trace:
        tracer.enable()
        os.environ[TRACE_ENV] = "1"
    if metrics:
        registry.enable()
        os.environ[METRICS_ENV] = "1"


def disable() -> None:
    """Turn telemetry off (buffers are kept until the next ``enable``)."""
    tracer.disable()
    registry.disable()
    os.environ.pop(TRACE_ENV, None)
    os.environ.pop(METRICS_ENV, None)


def enable_from_env() -> bool:
    """Worker-side hook: enable whatever the environment asks for.

    Raises ``ValueError`` on unrecognized ``REPRO_TRACE`` /
    ``REPRO_METRICS`` values.
    """
    tracer.enable_from_env()
    registry.enable_from_env()
    return enabled()


# -- worker transport ------------------------------------------------------
def export_telemetry() -> dict | None:
    """This process's telemetry as one picklable payload (or ``None``).

    Pool workers call this after finishing a job; the parent folds the
    payload back with :func:`ingest_telemetry`.
    """
    payload: dict = {}
    if tracer.active:
        spans = tracer.snapshot()
        if spans:
            payload["spans"] = spans
    if registry.active and not registry.is_empty():
        payload["metrics"] = registry.to_dict()
    return payload or None


def ingest_telemetry(payload: dict | None) -> None:
    """Fold a worker's :func:`export_telemetry` payload into this process."""
    if not payload:
        return
    spans = payload.get("spans")
    if spans:
        tracer.ingest(spans)
    metrics = payload.get("metrics")
    if metrics:
        registry.merge(metrics)
