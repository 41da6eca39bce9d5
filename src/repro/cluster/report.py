"""Cluster-level results: per-chip and fleet-aggregate statistics.

Reuses the serving layer's percentile machinery
(:func:`repro.serve.report.latency_stats`, over mergeable latency
sketches) so single-chip and cluster reports quote the same statistics,
and stays well-defined on degenerate outcomes (a fully-shed stream
reports zeros, not errors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..serve.report import latency_stats
from ..serve.sketch import LatencySketch
from ..serve.workload import TenantSpec
from .autoscale import ScalingEvent

__all__ = [
    "ChipReport",
    "ClusterReport",
    "ShardChipStats",
    "WindowStats",
    "tenant_report",
]


@dataclass(frozen=True)
class ChipReport:
    """One chip's contribution to a cluster run."""

    name: str
    kind: str
    models: tuple[str, ...]
    requests_served: int
    mean_batch_size: float
    utilization: dict[str, float]     # busy fraction over the chip's active span
    dynamic_energy_mj: float
    static_energy_mj: float
    active_span_s: float
    added_s: float                    # 0.0 for the initial fleet
    drained: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "models": list(self.models),
            "requests_served": self.requests_served,
            "mean_batch_size": self.mean_batch_size,
            "utilization": dict(self.utilization),
            "energy_mj": {
                "dynamic": self.dynamic_energy_mj,
                "static": self.static_energy_mj,
            },
            "active_span_s": self.active_span_s,
            "added_s": self.added_s,
            "drained": self.drained,
        }


def tenant_report(
    specs: tuple[TenantSpec, ...],
    latency: dict[str, LatencySketch],
    shed: dict[str, int],
    service_s: dict[str, float],
) -> dict[str, dict]:
    """Per-tenant report blocks from per-tenant latency sketches.

    Covers the union of declared tenants and tenants actually observed —
    a declared tenant that served zero requests still gets a row (empty
    sketch → all-zero latency stats, zero share), never a ``KeyError`` or
    ``NaN``: "tenant was idle" must be distinguishable from "tenant was
    dropped from the report".
    """
    by_name = {spec.name: spec for spec in specs}
    names = sorted(set(by_name) | set(latency) | set(shed) | set(service_s))
    total_service = sum(service_s.values())
    blocks: dict[str, dict] = {}
    for name in names:
        spec = by_name.get(name)
        sketch = latency.get(name) or LatencySketch()
        stats = latency_stats(sketch)
        service = service_s.get(name, 0.0)
        blocks[name] = {
            "weight": spec.weight if spec else 1.0,
            "quota": spec.quota if spec else None,
            "served": stats.count,
            "shed": shed.get(name, 0),
            "service_s": service,
            "service_share": (
                service / total_service if total_service > 0 else 0.0
            ),
            "latency_ms": {
                "mean": stats.mean_ms,
                "max": stats.max_ms,
                **stats.percentiles_ms,
            },
        }
    return blocks


@dataclass(frozen=True)
class ShardChipStats:
    """One chip's summary counters, as shipped in a shard's final digest.

    Shards never move per-request records between processes; these
    counters (plus the shard's latency sketches) are all the coordinator
    needs to build :class:`ChipReport` rows.
    """

    name: str
    kind: str
    models: tuple[str, ...]
    requests_served: int
    mean_batch_size: float
    busy_s: dict[str, float]          # per engine unit
    dynamic_energy_pj: float
    started_s: float
    accepting: bool
    drained_s: float | None

    def active_span_s(self, horizon_s: float) -> float:
        end = horizon_s
        if not self.accepting and self.drained_s is not None:
            end = self.drained_s
        return max(0.0, end - self.started_s)

    def report(self, horizon_s: float, static_pj_per_s: float) -> ChipReport:
        """This chip's report row for a run whose last completion is at
        ``horizon_s``."""
        span = self.active_span_s(horizon_s)
        return ChipReport(
            name=self.name,
            kind=self.kind,
            models=self.models,
            requests_served=self.requests_served,
            mean_batch_size=self.mean_batch_size,
            utilization={
                unit: busy / span if span > 0 else 0.0
                for unit, busy in self.busy_s.items()
            },
            dynamic_energy_mj=self.dynamic_energy_pj * 1e-9,
            static_energy_mj=static_pj_per_s * span * 1e-9,
            active_span_s=span,
            added_s=self.started_s,
            drained=self.drained_s is not None and not self.accepting,
        )


@dataclass(frozen=True)
class WindowStats:
    """One coordination window of a fleet run, fleet-aggregated."""

    index: int
    start_s: float
    end_s: float
    arrivals: int
    served: int
    shed: int
    backlog: int                 # queued + in-flight across shards at window end
    p99_ms: float                # this window's completions
    mean_ms: float
    slo_attainment: float | None = None
    # Streaming-monitor series (populated when the SLO monitor / alert
    # detectors run alongside the coordinator loop).
    pressure: float | None = None        # outstanding work / fleet capacity
    pending: int | None = None           # queued-only (backlog minus in-flight)
    budget_remaining: float | None = None
    burn_rate: float | None = None
    # This window's completions per tenant; in memory only (not emitted
    # by to_dict, so window payloads keep their shape).
    tenant_served: dict[str, int] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        payload = {
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "arrivals": self.arrivals,
            "served": self.served,
            "shed": self.shed,
            "backlog": self.backlog,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
        }
        if self.slo_attainment is not None:
            payload["slo_attainment"] = self.slo_attainment
        for key in ("pressure", "pending", "budget_remaining", "burn_rate"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


@dataclass
class ClusterReport:
    """Aggregate view of one cluster simulation."""

    num_requests: int
    served: int
    shed: int
    offered_rps: float
    horizon_s: float                  # last completion time
    throughput_rps: float
    latency_percentiles_ms: dict[str, float]
    latency_mean_ms: float
    latency_max_ms: float
    queue_wait_mean_ms: float
    policy: str
    queue_capacity: int | None
    initial_chips: int
    final_accepting_chips: int
    chips: dict[str, ChipReport]
    shed_by_model: dict[str, int]
    scaling_events: tuple[ScalingEvent, ...]
    dynamic_energy_mj: float
    static_energy_mj: float
    num_shards: int = 1
    window_s: float | None = None
    windows: tuple[WindowStats, ...] = field(default_factory=tuple, repr=False)
    latency_sketch: LatencySketch | None = field(default=None, repr=False)
    slo: dict | None = None
    alerts: tuple[dict, ...] = field(default_factory=tuple)
    # Multi-tenant runs: per-tenant report blocks (tenant_report) and the
    # underlying mergeable latency sketches (empty for idle tenants).
    tenants: dict[str, dict] = field(default_factory=dict)
    tenant_sketches: dict[str, LatencySketch] = field(
        default_factory=dict, repr=False
    )

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.num_requests if self.num_requests else 0.0

    @property
    def energy_per_request_mj(self) -> float:
        if not self.served:
            return 0.0
        return (self.dynamic_energy_mj + self.static_energy_mj) / self.served

    def to_dict(self) -> dict:
        """JSON-ready payload (drops the sketches and per-tenant window
        counts)."""
        payload = {
            "num_requests": self.num_requests,
            "served": self.served,
            "shed": self.shed,
            "shed_fraction": self.shed_fraction,
            "shed_by_model": dict(self.shed_by_model),
            "offered_rps": self.offered_rps,
            "horizon_s": self.horizon_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "mean": self.latency_mean_ms,
                "max": self.latency_max_ms,
                **self.latency_percentiles_ms,
            },
            "queue_wait_mean_ms": self.queue_wait_mean_ms,
            "router": {
                "policy": self.policy,
                "queue_capacity": self.queue_capacity,
            },
            "fleet": {
                "initial_chips": self.initial_chips,
                "final_accepting_chips": self.final_accepting_chips,
                "chips": {name: chip.to_dict() for name, chip in self.chips.items()},
            },
            "autoscaler_events": [event.to_dict() for event in self.scaling_events],
            "energy_mj": {
                "dynamic": self.dynamic_energy_mj,
                "static": self.static_energy_mj,
                "per_request": self.energy_per_request_mj,
            },
        }
        if self.num_shards > 1 or self.windows:
            payload["sharding"] = {
                "num_shards": self.num_shards,
                "window_s": self.window_s,
                "num_windows": len(self.windows),
                "windows": [window.to_dict() for window in self.windows],
            }
        if self.slo is not None:
            payload["slo"] = dict(self.slo)
        if self.alerts:
            payload["alerts"] = [dict(alert) for alert in self.alerts]
        if self.tenants:
            payload["tenants"] = {
                name: dict(block) for name, block in self.tenants.items()
            }
        return payload
