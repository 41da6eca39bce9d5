"""The traced run: counting/timing wrappers and the per-layer metrics.

:class:`LayerProbe` wraps layer entry points of the ``repro`` package for
the lifetime of a ``with`` block, counting calls and summing host time in
plain dicts; it installs nothing unless a traced run asks for it.  The
spans (``repro.obs`` plus the benchmark's own ``bench.*`` spans) give the
rest through :func:`repro.obs.self_time`.

Scopes, so counts repeat exactly while times use every sample:

* compile-layer counts cover set-up plus the first round of timed
  operations; engine, serve and cluster counts cover the first round;
* compile-layer times are per program over every program in the run;
* engine, serve and cluster times are per timed operation;
* set-up layers (traces, profile compiles, fleet rating) are set-up totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro import obs

from .measure import round_rate, run_timed

__all__ = ["PER_LAYER_UNITS", "LayerProbe", "layer_metrics", "phase_doc", "traced_run"]

PASSES = ("ingest", "packing", "ecp", "stratify", "lower", "schedule")

# name -> unit; BENCHMARK.json's "per_layer" list states the same pairs.
PER_LAYER_UNITS = {
    **{f"compile.pass.{p}_s": "s" for p in PASSES},
    "compile.program_s": "s",
    "compile.stages": "count",
    "arch.balanced_theta_s": "s",
    "arch.balanced_theta.candidates": "count",
    "bundles.ttbgrid_builds": "count",
    "arch.dense_core.calls": "count",
    "arch.sparse_core.calls": "count",
    "arch.dense_core_s": "s",
    "arch.sparse_core_s": "s",
    "arch.attention_core_s": "s",
    "harness.synthetic_trace_s": "s",
    "serve.profile_compile_s": "s",
    "cluster.capacity_s": "s",
    "engine.events_per_req": "count",
    "engine.run_self_s": "s",
    "engine.ns_per_event": "ns",
    "serve.simulate_s": "s",
    "serve.scheduler_s": "s",
    "serve.scheduler.calls_per_req": "count",
    "serve.preemptions": "count",
    "serve.continuous_joins": "count",
    "serve.batch_size_mean": "count",
    "cluster.shard_step_s_p50": "s",
    "cluster.shard_step_s_p99": "s",
    "cluster.shard_step_total_s": "s",
    "cluster.coordinator_s": "s",
    "obs.slo_observe_s": "s",
    "cluster.windows": "count",
    "bench.items_per_ref_s": "1/s",
    "bench.slowdown": "x",
}

# (module, attribute path, probe key, kind).  A "timer" counts calls and
# sums their seconds; "count" only counts.
TARGETS = (
    ("repro.bundles.ttb", "TTBGrid.__init__", "bundles.ttbgrid", "count"),
    ("repro.arch.engine.kernel", "Engine.schedule", "engine.events", "count"),
    ("repro.compiler.passes", "PassManager.run", "compile.program", "program"),
    ("repro.compiler.lowering", "balanced_theta", "arch.balanced_theta", "theta"),
    ("repro.compiler.lowering", "simulate_dense_core", "arch.dense_core", "timer"),
    ("repro.compiler.lowering", "simulate_sparse_core", "arch.sparse_core", "timer"),
    ("repro.compiler.lowering", "simulate_attention_core", "arch.attention_core", "timer"),
    ("repro.harness.synthetic", "synthetic_trace", "harness.synthetic_trace", "timer"),
    ("repro.serve.simulate", "take_batch", "serve.scheduler", "timer"),
    ("repro.serve.continuous", "ContinuousBatchScheduler.select", "serve.scheduler", "timer"),
    ("repro.serve.continuous", "ContinuousBatchScheduler.stage_done", "serve.scheduler", "timer"),
    ("repro.cluster.sharding", "ShardState.step", "cluster.shard_step", "step"),
    ("repro.obs.slo", "SLOMonitor.observe_window", "obs.slo_observe", "timer"),
)

# Per-layer metrics that depend on each wrapper key.
_DEPENDS = {
    "bundles.ttbgrid": ("bundles.ttbgrid_builds",),
    "engine.events": ("engine.events_per_req", "engine.ns_per_event"),
    "compile.program": (
        *(f"compile.pass.{p}_s" for p in PASSES), "compile.program_s",
        "compile.stages", "arch.balanced_theta_s",
        "arch.balanced_theta.candidates", "bundles.ttbgrid_builds",
        "arch.dense_core.calls", "arch.sparse_core.calls",
        "arch.dense_core_s", "arch.sparse_core_s", "arch.attention_core_s",
    ),
    "arch.balanced_theta": ("arch.balanced_theta_s", "arch.balanced_theta.candidates"),
    "arch.dense_core": ("arch.dense_core.calls", "arch.dense_core_s"),
    "arch.sparse_core": ("arch.sparse_core.calls", "arch.sparse_core_s"),
    "arch.attention_core": ("arch.attention_core_s",),
    "harness.synthetic_trace": ("harness.synthetic_trace_s",),
    "serve.scheduler": ("serve.scheduler_s", "serve.scheduler.calls_per_req"),
    "cluster.shard_step": (
        "cluster.shard_step_s_p50", "cluster.shard_step_s_p99",
        "cluster.shard_step_total_s", "cluster.coordinator_s",
    ),
    "obs.slo_observe": ("obs.slo_observe_s",),
}


class LayerProbe:
    """Wrappers around layer entry points, removed again on exit."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.steps: list[float] = []
        self.missing: set[str] = set()
        self.marks: dict[str, tuple[dict, dict, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- install / remove --------------------------------------------------
    def __enter__(self) -> "LayerProbe":
        for module_name, path, key, kind in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if key not in self.missing:
                    print(
                        f"warning: {module_name}.{path} not found;"
                        f" its per-layer metrics read null",
                        file=sys.stderr,
                    )
                self.missing.add(key)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, getattr(self, f"_{kind}")(key, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrapper kinds -----------------------------------------------------
    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timer(self, key, fn):
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] += time.perf_counter() - began
                counts[key] += 1

        return wrapper

    def _program(self, key, fn):
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            program = fn(*args, **kwargs)
            times[key] += time.perf_counter() - began
            counts[key] += 1
            counts["compile.stages"] += len(program.stages)
            return program

        return wrapper

    def _theta(self, key, fn):
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(spikes, spec, dense_time_fn, sparse_time_fn, *args, **kwargs):
            def dense_counted(workload):
                counts[f"{key}.candidates"] += 1
                return dense_time_fn(workload)

            began = time.perf_counter()
            try:
                return fn(spikes, spec, dense_counted, sparse_time_fn, *args, **kwargs)
            finally:
                times[key] += time.perf_counter() - began
                counts[key] += 1

        return wrapper

    def _step(self, key, fn):
        counts, times, steps = self.counts, self.times, self.steps

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - began
                steps.append(elapsed)
                times[key] += elapsed
                counts[key] += 1

        return wrapper

    # -- phases ------------------------------------------------------------
    def mark(self, name: str) -> None:
        """Snapshot the counters at a phase boundary."""
        self.marks[name] = (dict(self.counts), dict(self.times), len(self.steps))

    def count(self, key: str, mark: str, since: str | None = None) -> int:
        value = self.marks[mark][0].get(key, 0)
        return value - (self.marks[since][0].get(key, 0) if since else 0)

    def seconds(self, key: str, mark: str, since: str | None = None) -> float:
        value = self.marks[mark][1].get(key, 0.0)
        return value - (self.marks[since][1].get(key, 0.0) if since else 0.0)


def _resolve(module_name: str, path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


def phase_doc(doc: dict, span_name: str) -> dict:
    """The events of ``doc`` inside the (first) span named ``span_name``."""
    events = doc.get("traceEvents", [])
    outer = next(
        (e for e in events if e.get("ph") == "X" and e.get("name") == span_name),
        None,
    )
    if outer is None:
        return {"traceEvents": []}
    lo, hi = outer["ts"], outer["ts"] + outer["dur"]
    return {
        "traceEvents": [
            e for e in events
            if e.get("ph") != "X" or (lo <= e["ts"] and e["ts"] + e["dur"] <= hi)
        ]
    }


def _rollup(doc: dict) -> dict[str, dict]:
    return {row["name"]: row for row in obs.self_time(doc)}


def layer_metrics(doc: dict, probe: LayerProbe, workload, records) -> dict:
    """Every per-layer metric of one traced run (``None`` if unmeasurable).

    ``probe`` must carry the marks ``setup`` (end of set-up), ``round``
    (end of the first round) and ``end``; ``records`` are the timed ops.
    """
    whole = _rollup(doc)
    setup = _rollup(phase_doc(doc, "bench.setup"))
    timed = _rollup(phase_doc(doc, "bench.timed"))

    def total_s(rows, name):
        return rows.get(name, {}).get("total_us", 0.0) * 1e-6

    def self_s(rows, name):
        return rows.get(name, {}).get("self_us", 0.0) * 1e-6

    def ratio(a, b):
        return a / b if b else 0.0

    ops = len(records)
    round_ops = records[: workload.ops_per_round]
    first = round_ops[0].digest or {}
    per_request = workload.item_kind == "request"
    round_requests = sum(r.items for r in round_ops) if per_request else 0

    programs = probe.count("compile.program", "end")
    round_programs = probe.count("compile.program", "round")
    events = probe.count("engine.events", "end", since="setup")
    # Every scheduler call runs inside an engine event: charge it to serve.
    scheduler_s = probe.seconds("serve.scheduler", "end", since="setup")
    engine_self = self_s(timed, "engine.run") - scheduler_s
    steps = probe.steps[probe.marks["setup"][2]:]
    step_total = sum(steps)

    metrics = {
        **{
            f"compile.pass.{p}_s": ratio(self_s(whole, f"compile.pass.{p}"), programs)
            for p in PASSES
        },
        "compile.program_s": ratio(probe.seconds("compile.program", "end"), programs),
        "compile.stages": ratio(probe.count("compile.stages", "round"), round_programs),
        "arch.balanced_theta_s": ratio(
            probe.seconds("arch.balanced_theta", "end"), programs
        ),
        "arch.balanced_theta.candidates": ratio(
            probe.count("arch.balanced_theta.candidates", "round"), round_programs
        ),
        "bundles.ttbgrid_builds": ratio(
            probe.count("bundles.ttbgrid", "round"), round_programs
        ),
        "arch.dense_core.calls": ratio(
            probe.count("arch.dense_core", "round"), round_programs
        ),
        "arch.sparse_core.calls": ratio(
            probe.count("arch.sparse_core", "round"), round_programs
        ),
        **{
            f"arch.{core}_s": ratio(probe.seconds(f"arch.{core}", "end"), programs)
            for core in ("dense_core", "sparse_core", "attention_core")
        },
        "harness.synthetic_trace_s": probe.seconds("harness.synthetic_trace", "setup"),
        "serve.profile_compile_s": total_s(setup, "bench.request_profile"),
        "cluster.capacity_s": total_s(setup, "bench.fleet_capacity"),
        "engine.events_per_req": ratio(
            probe.count("engine.events", "round", since="setup"), round_requests
        ),
        "engine.run_self_s": ratio(engine_self, ops),
        "engine.ns_per_event": ratio(engine_self * 1e9, events),
        "serve.simulate_s": ratio(total_s(timed, "bench.simulate_serving"), ops),
        "serve.scheduler_s": ratio(scheduler_s, ops),
        "serve.scheduler.calls_per_req": ratio(
            probe.count("serve.scheduler", "round", since="setup"), round_requests
        ),
        "serve.preemptions": first.get("preemptions", 0),
        "serve.continuous_joins": first.get("continuous_joins", 0),
        "serve.batch_size_mean": first.get("batch_size_mean", 0.0),
        "cluster.shard_step_s_p50": _quantile(steps, 0.50),
        "cluster.shard_step_s_p99": _quantile(steps, 0.99),
        "cluster.shard_step_total_s": ratio(step_total, ops),
        "cluster.coordinator_s": (
            ratio(total_s(timed, "bench.simulate_cluster_sharded") - step_total, ops)
            if steps else 0.0
        ),
        "obs.slo_observe_s": ratio(
            probe.seconds("obs.slo_observe", "end", since="setup"), ops
        ),
        "cluster.windows": len(first.get("window_served", ())),
        "bench.items_per_ref_s": round_rate(records, workload.ops_per_round),
        "bench.slowdown": statistics.median([r.slowdown for r in records]),
    }
    for key in probe.missing:
        for name in _DEPENDS.get(key, ()):
            metrics[name] = None
    return metrics


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def traced_run(workload, seconds: float, out_dir: Path):
    """Set up and time ``workload`` with telemetry on and the probe installed.

    Writes ``trace-<workload>.json`` (readable by ``repro analyze
    --self-time``) and ``layers-<workload>.json`` into ``out_dir``; returns
    ``(per-layer metrics, timed op records)``.
    """
    with LayerProbe() as probe:
        obs.enable()
        try:
            with obs.span("bench.setup", cat="bench"):
                workload.setup()
            probe.mark("setup")

            def on_op(index):
                if index + 1 == workload.ops_per_round:
                    probe.mark("round")

            with obs.span("bench.timed", cat="bench"):
                records = run_timed(workload, seconds, on_op=on_op)
            probe.mark("end")
        finally:
            obs.disable()
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = obs.tracer.write(out_dir / f"trace-{workload.name}.json")
    metrics = layer_metrics(doc, probe, workload, records)
    (out_dir / f"layers-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "metrics": metrics,
        "self_time": obs.self_time(doc),
    }, indent=1) + "\n")
    return metrics, records
