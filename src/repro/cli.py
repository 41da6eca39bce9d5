"""Command-line interface: ``python -m repro <command>``.

Commands: ``list``, ``run``, ``run-all``, ``sweep``, ``compile``,
``cluster``, ``dse``, ``cache ls|gc``, ``trace``, ``metrics``,
``analyze``, ``slo`` and ``zoo``; ``repro <command> --help`` lists each
one's arguments.  Every command is one handler ``_cmd_<name>`` whose
signature is its command line (``repro.schema.add_signature``): the
parameters before ``*`` are positional arguments, the keyword-only ones
``--kebab-case`` flags typed and defaulted by the signature, with help
text from ``repro.schema.HELP``; the first docstring line is the
command's help.  A handler's ``KeyError`` or ``ValueError`` is a usage
error (exit 2); exit 1 is an experiment that failed at runtime.

Reproducibility: ``run``/``sweep``/``trace``/``metrics``/``cluster``
accept ``--seed N``, threaded end-to-end into workload generation and
synthetic traces (for registry experiments it sets the ``seed``
parameter unless one is given explicitly via ``--param``).

Observability: see docs/OBSERVABILITY.md for the span/metric naming
convention and the ``repro.obs`` API the instrumented layers use.

Performance: the ``perf/`` benchmark (perf/README.md) is the one
measurement and gate; CI runs each of its workloads on the parent and on
the change and fails on a regressed verdict from ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Literal

from . import obs
from .harness import EXPERIMENTS, get_experiment
from .model import MODEL_ZOO
from .runtime import (
    ExperimentRunner,
    ResultCache,
    RunSummary,
    canonical_json,
    parse_param_specs,
)
from .schema import add_signature

__all__ = ["COMMANDS", "build_parser", "main"]


def _check_model(model: str) -> None:
    if model not in MODEL_ZOO:
        raise ValueError(f"unknown model {model!r}; options {sorted(MODEL_ZOO)}")


def _parse_single_params(name: str, specs: list[str], seed: int | None = None) -> dict:
    experiment = get_experiment(name)
    grid = parse_param_specs(experiment, specs)
    multi = [k for k, values in grid.items() if len(values) > 1]
    if multi:
        raise ValueError(
            f"`run` takes single values; {multi} have several (use `sweep`)"
        )
    params = {k: values[0] for k, values in grid.items()}
    return _apply_seed(experiment, params, seed)


def _seed_applies(experiment, explicit: bool, seed: int | None) -> bool:
    """Whether ``--seed`` should set the experiment's seed parameter.

    An explicit ``--param seed=...`` (or sweep axis) wins; a seed flag on
    a seedless experiment warns rather than failing, so sweep scripts can
    pass one uniformly.
    """
    if seed is None or explicit:
        return False
    if "seed" not in experiment.params:
        print(
            f"--seed ignored: experiment {experiment.id!r} has no seed parameter",
            file=sys.stderr,
        )
        return False
    return True


def _apply_seed(experiment, params: dict, seed: int | None) -> dict:
    if _seed_applies(experiment, "seed" in params, seed):
        params["seed"] = seed
    return params


def _print_summary(summary: RunSummary) -> None:
    for outcome in summary.outcomes:
        source = "hit " if outcome.cache_hit else ("FAIL" if not outcome.ok else "run ")
        print(f"  {outcome.experiment:<16} {source}  {outcome.duration_s:7.2f}s")
        if not outcome.ok:
            print(outcome.error, file=sys.stderr)
    print(
        f"{len(summary.outcomes)} experiments: {summary.hits} cache hits,"
        f" {summary.misses} runs, {summary.errors} errors"
        f" (hit rate {summary.hit_rate:.0%}) in {summary.wall_time_s:.1f}s"
        f" with {summary.jobs} job(s)"
    )
    if summary.manifest_path:
        print(f"manifest: {summary.manifest_path}")


def _write_trace(path: Path, extra_events: list | None = None) -> None:
    """Serialize the global tracer to ``path`` and print a summary line."""
    payload = obs.tracer.write(path, extra_events)
    spans = sum(1 for e in payload["traceEvents"] if e.get("ph") == "X")
    print(f"trace: {path} ({spans} spans; open at https://ui.perfetto.dev)")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=float)


def _run_one(
    experiment: str, param: list[str], seed: int | None,
    *, smoke: bool = False, trace: bool = True,
):
    """Run one experiment uncached, with telemetry on when ``trace``.

    ``smoke`` starts from the experiment's smoke params, under any
    explicit ``--param``/``--seed`` overrides.  Returns the outcome, or
    ``None`` (error already printed).  Bypassing the result cache
    matters: a cache hit would execute nothing and record an empty trace.
    """
    params = _parse_single_params(experiment, param, seed)
    if smoke:
        params = {**get_experiment(experiment).smoke_params, **params}
    if trace:
        obs.enable()
    outcome = ExperimentRunner(artifacts_root=None).run(experiment, params)
    if not outcome.ok:
        print(outcome.error, file=sys.stderr)
        return None
    return outcome


def _cmd_list() -> int:
    """list registered experiment ids

    One line per experiment: id, paper artifact, cost tier, parameter
    names and description.
    """
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[name]
        params = ",".join(sorted(experiment.params)) or "-"
        print(
            f"{name:<{width}}  {experiment.artifact:<9} {experiment.cost:<7}"
            f" params:{params:<24} {experiment.description}"
        )
    return 0


def _cmd_run(
    experiment: str,
    *,
    param: tuple[str, ...] = (),
    seed: int | None = None,
    output: Path | None = None,
    trace: bool = False,
) -> int:
    """run one experiment

    Prints its JSON result (or writes it to --output); --trace also
    writes TRACE_<experiment>.json.
    """
    outcome = _run_one(experiment, param, seed, trace=trace)
    if outcome is None:
        return 1
    text = _json_text(outcome.result)
    if output is not None:
        output.write_text(text)
        print(f"wrote {output}")
    else:
        print(text)
    if trace:
        _write_trace(
            Path(f"TRACE_{experiment}.json"), obs.result_events(outcome.result)
        )
    return 0


def _cmd_run_all(
    *,
    only: str | None = None,
    smoke: bool = False,
    jobs: int = 1,
    force: bool = False,
    artifacts: Path = Path("artifacts"),
    trace: bool = False,
    alerts: bool = False,
) -> int:
    """run every experiment via the parallel cached runtime

    Process-pool execution, a content-addressed result cache, and
    <artifacts>/<id>.json plus a manifest.json with timings and cache
    hits.
    """
    if trace:
        obs.enable()
    runner = ExperimentRunner(artifacts_root=artifacts, jobs=jobs, force=force)
    summary = runner.run_all(
        only=None if only is None else [
            name.strip() for name in only.split(",") if name.strip()
        ],
        smoke=smoke, alerts=alerts,
    )
    _print_summary(summary)
    if trace:
        root = (
            Path(summary.manifest_path).parent
            if summary.manifest_path
            else artifacts
        )
        _write_trace(root / "trace.json")
    return 0 if summary.ok else 1


def _cmd_sweep(
    experiment: str,
    *,
    param: tuple[str, ...] = (),
    seed: int | None = None,
    jobs: int = 1,
    force: bool = False,
    artifacts: Path = Path("artifacts"),
    output: Path | None = None,
) -> int:
    """parameter sweep of one experiment

    The Cartesian product of the comma-separated --param values, through
    the parallel cached runtime; the sweep payload lands under
    <artifacts>/sweeps/.
    """
    runner = ExperimentRunner(artifacts_root=artifacts, jobs=jobs, force=force)
    spec = get_experiment(experiment)
    grid = parse_param_specs(spec, param)
    if _seed_applies(spec, "seed" in grid, seed):
        grid = {**grid, "seed": [seed]}
    summary = runner.sweep(experiment, grid)
    _print_summary(summary)
    sweep_path = runner.store.sweep_path(experiment)
    print(f"sweep: {sweep_path}")
    if output is not None:
        output.write_text(sweep_path.read_text())
        print(f"wrote {output}")
    return 0 if summary.ok else 1


def _cmd_trace(
    experiment: str,
    *,
    param: tuple[str, ...] = (),
    seed: int | None = None,
    smoke: bool = False,
    output: Path | None = None,
) -> int:
    """run one experiment with tracing on; write Perfetto JSON

    The Chrome trace-event JSON holds wall-clock spans plus simulated-time
    tracks, loadable at https://ui.perfetto.dev.
    """
    outcome = _run_one(experiment, param, seed, smoke=smoke)
    if outcome is None:
        return 1
    output = output or Path(f"TRACE_{experiment}.json")
    _write_trace(output, obs.result_events(outcome.result))
    return 0


def _cmd_metrics(
    experiment: str | None = None,
    *,
    param: tuple[str, ...] = (),
    seed: int | None = None,
    smoke: bool = False,
    manifest: Path | None = None,
    json: bool = False,
) -> int:
    """dump the metrics registry from a run or a manifest

    Counters, gauges and sketch-backed histograms: either run one
    experiment with metrics on, or read the metrics block a
    `run-all --trace` recorded in its manifest.
    """
    if (experiment is None) == (manifest is None):
        raise ValueError(
            "metrics: give an experiment id or --manifest FILE"
            + (", not both" if manifest else "")
        )
    if manifest is not None:
        if not manifest.is_file():
            raise ValueError(f"--manifest: {manifest} not found")
        payload = _load_json(manifest)
        snapshot = payload.get("metrics") if isinstance(payload, dict) else None
        if not snapshot:
            print(
                f"{manifest}: no metrics block (record one with"
                " `repro run-all --trace`)",
                file=sys.stderr,
            )
            return 1
    else:
        if _run_one(experiment, param, seed, smoke=smoke) is None:
            return 1
        snapshot = obs.registry.to_dict()
    if json:
        print(_json_text(snapshot))
    else:
        for line in obs.format_metrics(snapshot):
            print(line)
    return 0


def _resolve_artifact(target: str, artifacts_root: Path) -> Path:
    """Resolve a CLI target to a JSON file: a path, or an artifact id.

    Ids are looked up under the artifact root and its ``smoke/``
    subdirectory.  Unknown ids raise ``KeyError`` with the available ids
    in the message (the caller maps that to exit 2) — never a traceback.
    """
    path = Path(target)
    if path.is_file():
        return path
    roots = [artifacts_root, artifacts_root / "smoke"]
    for root in roots:
        candidate = root / f"{target}.json"
        if candidate.is_file():
            return candidate
    available = sorted({
        entry.stem
        for root in roots
        if root.is_dir()
        for entry in root.glob("*.json")
        if entry.stem != "manifest"
    })
    listing = ", ".join(available) if available else "(none)"
    raise KeyError(
        f"unknown artifact {target!r} under {artifacts_root};"
        f" available ids: {listing} — or pass a JSON file path"
    )


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None


def _print_critical_path(label: str, cp, top: int) -> None:
    print(
        f"critical path [{label}]: {len(cp.segments)} segments,"
        f" path {cp.total_s * 1e3:.6f} ms / makespan {cp.makespan_s * 1e3:.6f} ms"
    )
    for resource, share in sorted(
        cp.blocking_shares().items(), key=lambda kv: -kv[1]
    ):
        bar = "#" * int(round(share * 40))
        print(f"  {resource:<18} {share:7.2%}  {bar}")
    for seg in cp.segments[:top]:
        print(
            f"    {seg.start_s * 1e3:10.4f} -> {seg.end_s * 1e3:10.4f} ms"
            f"  {seg.resource:<18} {seg.label}"
        )
    if len(cp.segments) > top:
        print(f"    ... {len(cp.segments) - top} more segments (--top N)")


def _cmd_analyze(
    target: str,
    *,
    critical_path: bool = False,
    self_time: bool = False,
    diff: str | None = None,
    top: int = 12,
    artifacts: Path = Path("artifacts"),
    json: bool = False,
) -> int:
    """analyze a saved trace or artifact offline

    --critical-path extracts the binding-resource chain whose durations
    sum exactly to the makespan, --self-time rolls the span tree up per
    name, and --diff OTHER localizes a regression to the spans that
    slowed down (OTHER is the baseline).  With no mode flag, every
    analysis that applies to the input runs.
    """
    path = _resolve_artifact(target, artifacts)
    doc = _load_json(path)
    is_trace = isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list)
    modes = [
        mode for mode, wanted in (
            ("critical-path", critical_path),
            ("self-time", self_time),
            ("diff", diff is not None),
        ) if wanted
    ]
    if not modes:        # default: everything that applies to the input
        modes = ["critical-path"] + (["self-time"] if is_trace else [])
    payload: dict = {"input": str(path)}

    if "critical-path" in modes:
        paths: list[tuple[str, object]] = []
        if is_trace:
            paths.append(("trace", obs.critical_path_trace(doc)))
        else:
            timelines = obs.analyze.find_timelines(doc)
            if not timelines:
                raise ValueError(
                    f"{path}: no engine timeline found (artifacts carry one"
                    " when the experiment records an EngineRun; traces always"
                    " analyze)"
                )
            paths.extend(
                (label, obs.critical_path(sub)) for label, sub in timelines
            )
        payload["critical_path"] = {
            label: cp.to_dict() for label, cp in paths
        }
        if not json:
            for label, cp in paths:
                _print_critical_path(label, cp, top)

    if "self-time" in modes:
        if not is_trace:
            raise ValueError(
                f"{path}: --self-time needs a Chrome trace document"
                " (written by `repro trace` or any --trace flag)"
            )
        rows = obs.self_time(doc)
        payload["self_time"] = rows
        if not json:
            print(f"self time [{path.name}]: {len(rows)} span names")
            width = max((len(r["name"]) for r in rows[:top]), default=4)
            for row in rows[:top]:
                print(
                    f"  {row['name']:<{width}}  x{row['count']:<5}"
                    f" self {row['self_us'] / 1e3:10.3f} ms"
                    f"  total {row['total_us'] / 1e3:10.3f} ms"
                )

    if "diff" in modes:
        other = _resolve_artifact(diff, artifacts)
        old_doc = _load_json(other)
        if not is_trace or not isinstance(old_doc.get("traceEvents"), list):
            raise ValueError(
                "--diff compares two Chrome trace documents"
                f" ({path} vs {other})"
            )
        rows = obs.diff_traces(old_doc, doc)
        payload["diff"] = {"baseline": str(other), "rows": rows}
        if not json:
            print(f"trace diff [{other.name} -> {path.name}]:")
            width = max((len(r["name"]) for r in rows[:top]), default=4)
            for row in rows[:top]:
                delta_ms = row["delta_self_us"] / 1e3
                print(
                    f"  {row['name']:<{width}}  {delta_ms:+10.3f} ms self"
                    f"  ({row['old_self_us'] / 1e3:.3f} ->"
                    f" {row['new_self_us'] / 1e3:.3f} ms) {row['status']}"
                )

    if json:
        print(_json_text(payload))
    return 0


def _cmd_slo(
    artifact: str,
    *,
    slo_ms: float = 0.0,
    target: float = 0.0,
    artifacts: Path = Path("artifacts"),
    json: bool = False,
) -> int:
    """replay a cluster artifact's window series through the SLO monitor

    Attainment, error-budget burn-down, and burn-rate alert transitions,
    window by window.
    """
    path = _resolve_artifact(artifact, artifacts)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a cluster report payload")
    windows = doc.get("windows")
    if not isinstance(windows, list):
        windows = (doc.get("sharding") or {}).get("windows")
    if not isinstance(windows, list) or not windows:
        raise ValueError(
            f"{path}: no window series (sharded cluster artifacts carry"
            " one; run `repro cluster --shards K --slo-ms MS --output ...`)"
        )
    saved = doc.get("slo") if isinstance(doc.get("slo"), dict) else {}
    slo_ms = slo_ms or saved.get("slo_ms")
    if not slo_ms:
        raise ValueError(
            f"{path}: no SLO in the artifact; pass --slo-ms MS"
        )
    target = target or saved.get("target", 0.99)
    monitor = obs.SLOMonitor(
        obs.SLOObjective(slo_ms=float(slo_ms), target=float(target))
    )
    for row in windows:
        served = int(row.get("served", 0))
        attainment = row.get("slo_attainment")
        # Offline replay reduces each window to (served, good) counts;
        # windows recorded without attainment count as all-good.
        good = served * float(attainment) if attainment is not None else served
        monitor.observe_counts(
            int(row.get("index", 0)),
            float(row.get("start_s", 0.0)),
            float(row.get("end_s", 0.0)),
            served,
            good,
        )
    summary = monitor.summary()
    if json:
        print(_json_text(
            {"input": str(path), "slo": summary,
             "windows": [s.to_dict() for s in monitor.states]}
        ))
        return 0
    budget = summary["budget"]
    print(
        f"slo [{path.name}]: {summary['slo_ms']:g} ms @"
        f" target {summary['target']:g} over {len(windows)} windows"
    )
    print(
        f"  attainment {summary['attainment']:.4f}"
        f" ({summary['violations']} violations)"
    )
    print(
        f"  error budget: consumed {budget['consumed']:.2f}x,"
        f" remaining {budget['remaining']:.2%}"
    )
    worst = max(monitor.states, key=lambda s: s.burn_rate, default=None)
    if worst is not None:
        print(
            f"  peak burn rate {worst.burn_rate:.2f}x"
            f" (window {worst.index} @ {worst.end_s * 1e3:.2f} ms)"
        )
    if summary["alerts"]:
        for event in summary["alerts"]:
            print(
                f"  alert {event['rule']} {event['kind']}"
                f" @ window {event.get('window')}"
                f" (burn {event['value']:.2f}x)"
            )
    else:
        print("  no burn-rate alerts")
    return 0


def _cmd_cluster(
    *,
    fleet: str = "standard:4",
    policy: str = "least_work",
    mix: str = "model4",
    rho: float = 0.7,
    requests: int = 400,
    seed: int = 0,
    arrival: Literal[
        "poisson", "bursty", "diurnal", "flash_crowd", "regional"
    ] = "poisson",
    period_s: float = 0.0,
    regions: str = "us:0.5@0.0+eu:0.3@0.33+apac:0.2@0.66",
    shards: int = 1,
    window_ms: float = 0.0,
    shard_jobs: int = 1,
    shard_policy: Literal["round_robin", "least_backlog"] = "round_robin",
    slo_ms: float = 0.0,
    slo_target: float = 0.99,
    alerts: bool = False,
    scheduler: Literal["static", "continuous"] = "static",
    tenants: str = "",
    priority_mix: str = "",
    max_batch: int = 1,
    max_inflight: int = 2,
    queue_capacity: int = 0,
    autoscale_max: int = 0,
    passes: str = "all",
    kinds_file: Path | None = None,
    output: Path | None = None,
    trace: bool = False,
) -> int:
    """simulate a multi-chip fleet behind the router

    Builds the fleet (chip kinds from --kinds-file, e.g. a DSE fleet
    export, register first), serves the stream through the sharded fleet
    simulator, and prints the fleet summary and per-chip breakdown.
    --shards K partitions the fleet into K windowed shard engines, the
    trace arrivals drive planet-scale workloads, --slo-ms adds the SLO
    report, and --alerts writes INCIDENT_cluster.json.
    """
    # Imported lazily: the cluster layer pulls the whole simulator stack,
    # which `repro list`/`repro cache` don't need.
    from .cluster import (
        AdmissionConfig,
        AutoscaleConfig,
        ShardingConfig,
        auto_window_s,
        fleet_capacity_rps,
        homogeneous_fleet,
        parse_fleet,
        simulate_cluster_sharded,
    )
    from .serve import (
        SchedulerConfig,
        arrival_trace,
        assign_priorities,
        assign_tenants,
        parse_model_mix,
        parse_priority_mix,
        parse_tenants,
    )

    if shards < 1:
        raise ValueError(f"--shards must be >= 1, got {shards}")
    for flag, value in (("--window-ms", window_ms), ("--period-s", period_s)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0 (0 = auto), got {value:g}")
    if trace:
        obs.enable()
    if kinds_file is not None:
        from .cluster import load_chip_kinds

        names = load_chip_kinds(kinds_file)
        print(f"registered chip kind(s) from {kinds_file}: {', '.join(names)}")
    weights = parse_model_mix(mix)
    chip_fleet = parse_fleet(fleet)
    capacity = fleet_capacity_rps(chip_fleet, weights, seed=seed, passes=passes)
    rate = rho * capacity
    stream = arrival_trace(
        arrival, requests, rate, weights, seed,
        period_s=period_s, regions=regions,
    )
    tenant_specs = parse_tenants(tenants) if tenants else ()
    if tenant_specs:
        stream = assign_tenants(stream, tenant_specs, seed=seed)
    if priority_mix:
        stream = assign_priorities(
            stream, parse_priority_mix(priority_mix), seed=seed
        )

    autoscale = None
    if autoscale_max:
        # Sampling interval ~20x the mix's mean service time on one chip
        # of the fleet's leading kind — replicas are of that kind too, so
        # a sparse_heavy fleet scales with sparse_heavy chips.
        template_kind = chip_fleet.chips[0].kind
        mean_latency = 1.0 / fleet_capacity_rps(
            homogeneous_fleet(1, template_kind), weights, seed=seed,
            passes=passes,
        )
        autoscale = AutoscaleConfig(
            interval_s=20 * mean_latency,
            max_chips=autoscale_max,
            kind=template_kind,
        )
    scheduler_config = SchedulerConfig(
        max_batch=max_batch, max_inflight=max_inflight, mode=scheduler
    )
    if window_ms == 0 and autoscale is not None:
        # Every autoscale tick lands on a window edge.
        window_s = autoscale.interval_s
    else:
        span = stream[-1].arrival_s if stream else 0.0
        window_s = auto_window_s(window_ms, span, 32)
    report = simulate_cluster_sharded(
        stream,
        chip_fleet,
        scheduler_config,
        policy=policy,
        admission=AdmissionConfig(queue_capacity=queue_capacity or None),
        autoscale=autoscale,
        sharding=ShardingConfig(
            num_shards=shards,
            window_s=window_s,
            jobs=shard_jobs,
            shard_policy=shard_policy,
        ),
        seed=seed,
        passes=passes,
        slo_ms=slo_ms or None,
        slo_target=slo_target,
        alerts=alerts,
        tenants=tenant_specs,
    )

    p = report.latency_percentiles_ms
    print(
        f"fleet {fleet} policy {report.policy} mix {mix}"
        f" seed {seed} passes {passes}"
    )
    print(
        f"  offered {report.offered_rps:,.0f} rps (rho {rho} of"
        f" {capacity:,.0f} rps capacity)"
    )
    print(
        f"  served {report.served}/{report.num_requests}"
        f" (shed {report.shed}), throughput {report.throughput_rps:,.0f} rps"
    )
    print(
        f"  latency ms: p50 {p['p50']:.3f}  p95 {p['p95']:.3f}"
        f"  p99 {p['p99']:.3f}  max {report.latency_max_ms:.3f}"
    )
    print(f"  energy/request {report.energy_per_request_mj:.4f} mJ")
    if report.tenants:
        print(f"  tenants ({scheduler} scheduler):")
        for name, block in report.tenants.items():
            quota = block["quota"]
            print(
                f"    {name:<10} w={block['weight']:g}"
                f" quota={quota if quota is not None else '-'}"
                f" served {block['served']:>5} shed {block['shed']:>4}"
                f"  share {block['service_share']:6.2%}"
                f"  p99 {block['latency_ms']['p99']:.3f} ms"
            )
    if report.num_shards > 1:
        print(
            f"  sharded: {report.num_shards} shards,"
            f" {len(report.windows)} windows of"
            f" {report.window_s * 1e3:.4f} ms"
            f" ({shard_jobs or 'all'} job(s),"
            f" shard policy {shard_policy})"
        )
    if report.slo is not None:
        print(
            f"  slo {report.slo['slo_ms']:.3f} ms: attainment"
            f" {report.slo['attainment']:.4f}"
            f" ({report.slo['violations']} violations)"
        )
        budget = report.slo.get("budget")
        if budget is not None:
            print(
                f"  error budget: consumed {budget['consumed']:.2f}x,"
                f" remaining {budget['remaining']:.2%}"
                f" (target {report.slo.get('target', 0.99):g})"
            )
    if report.alerts:
        fired = [a for a in report.alerts if a.get("kind") == "fired"]
        rules = sorted({a["rule"] for a in fired})
        print(
            f"  alerts: {len(fired)} fired"
            + (f" ({', '.join(rules)})" if rules else "")
        )
        for alert in report.alerts:
            window = alert.get("window")
            at = f" @ window {window}" if window is not None else ""
            print(
                f"    {alert['severity']:<8} {alert['rule']}"
                f" {alert['kind']}{at}: {alert['message']}"
            )
    elif alerts or (report.slo or {}).get("rules"):
        print("  alerts: none fired")
    if len(report.chips) <= 16:
        for name, chip in report.chips.items():
            util = chip.utilization
            print(
                f"  {name:<7} {chip.kind:<12} served {chip.requests_served:>5}"
                f"  dense {util['dense_core']:.2f} sparse {util['sparse_core']:.2f}"
                f" attn {util['attention_core']:.2f} dram {util['dram']:.2f}"
                + ("  (drained)" if chip.drained else "")
            )
    else:
        served_counts = [c.requests_served for c in report.chips.values()]
        print(
            f"  {len(report.chips)} chips: served"
            f" min {min(served_counts)} / mean"
            f" {sum(served_counts) / len(served_counts):.1f} /"
            f" max {max(served_counts)} per chip"
            " (per-chip rows elided; see --output JSON)"
        )
    for event in report.scaling_events:
        print(
            f"  autoscaler t={event.t_s * 1e3:8.2f}ms {event.action:<5}"
            f" {event.chip} (pressure {event.pressure:.2f},"
            f" {event.accepting_chips} accepting)"
        )
    if output is not None:
        output.write_text(canonical_json(report.to_dict()))
        print(f"wrote {output}")
    if alerts:
        # Reconstruct incident episodes from the recorded transitions and
        # write the JSON incident report alongside the run.
        monitor = obs.Monitor(detectors=[])
        monitor.alerts = [
            obs.AlertEvent.from_dict(alert) for alert in report.alerts
        ]
        incident_path = Path("INCIDENT_cluster.json")
        incident_path.write_text(canonical_json(
            monitor.incident_report(slo_summary=report.slo)
        ))
        print(f"incident report: {incident_path}")
    if trace:
        _write_trace(
            Path("TRACE_cluster.json"), obs.result_events(report.to_dict())
        )
    return 0


def _cmd_compile(
    model: str,
    *,
    chip: str = "standard",
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "all",
    seed: int = 0,
    dram_gbps: float | None = None,
    theta_q: float | None = None,
    theta_k: float | None = None,
    dump: Path | None = None,
    no_cache: bool = False,
) -> int:
    """compile one zoo model into a chip program

    Runs the pass pipeline (repro.compiler) and prints the program
    summary: stages, tile counts per core class, bundle occupancy and
    estimated makespans.  ECP needs --theta-q and --theta-k together.
    """
    import dataclasses

    # Imported lazily, like the cluster layer: compilation pulls the full
    # simulator stack, which `repro list`/`repro cache` don't need.
    from .algo import ECPConfig
    from .cluster import chip_config
    from .compiler import PassConfig, ProgramCache, compile_model, default_program_cache, program_key

    _check_model(model)
    if (theta_q is None) != (theta_k is None):
        raise ValueError("--theta-q and --theta-k must be given together")
    config = chip_config(chip, bs_t, bs_n)
    if dram_gbps is not None:
        if dram_gbps <= 0:
            raise ValueError("--dram-gbps must be positive")
        config = config.with_overrides(
            dram=dataclasses.replace(
                config.dram, bandwidth_bytes_per_s=dram_gbps * 1e9
            )
        )
    ecp = None
    if theta_q is not None:
        ecp = ECPConfig(
            theta_q=theta_q, theta_k=theta_k, spec=config.bundle_spec
        )
    pass_config = PassConfig.parse(passes)
    cache = ProgramCache(None) if no_cache else default_program_cache()
    key = program_key(model, config, pass_config, seed=seed, ecp=ecp)
    # get(), not `in`: a corrupted on-disk entry is a miss (and self-heals).
    cached = cache.get(key) is not None
    program = compile_model(
        model, config, seed=seed, ecp=ecp, passes=pass_config,
        cache=cache,
    )

    if dump is not None and str(dump) == "-":
        print(canonical_json(program.to_dict()))
        return 0

    counts = program.tile_counts()
    phases = program.stage_counts()
    scheduled = program.scheduled_latency_s
    print(
        f"{model} on {chip} chip (bs {bs_t}x{bs_n},"
        f" seed {seed}), passes {pass_config.spec()}"
        + (f", ecp θq={theta_q:g} θk={theta_k:g}" if ecp else "")
    )
    print(f"  pipeline: {' -> '.join(program.passes)}")
    print(
        f"  stages {len(program.stages)} ("
        + " ".join(f"{phase} {n}" for phase, n in sorted(phases.items()))
        + ")"
    )
    print(
        "  tiles: "
        + "  ".join(f"{core} {counts[core]}" for core in sorted(counts))
    )
    print(f"  bundle occupancy {program.bundle_occupancy():.3f}")
    print(
        f"  est. makespan: serial {program.serial_latency_s * 1e3:.4f} ms"
        + (
            f" | scheduled {scheduled * 1e3:.4f} ms"
            if scheduled is not None
            else ""
        )
        + f" | lower bound {program.pipelined_bound_s * 1e3:.4f} ms"
    )
    print(
        f"  dynamic energy {program.dynamic_pj * 1e-9:.4f} mJ,"
        f" DRAM traffic {program.dram_bytes / 1e6:.2f} MB"
    )
    print(
        f"  program cache: {'hit' if cached else 'miss'} @{key[:12]}"
        + (" (bypassed)" if no_cache else "")
    )
    if dump is not None:
        dump.write_text(canonical_json(program.to_dict()))
        print(f"wrote {dump}")
    return 0


def _cmd_dse(
    model: str,
    *,
    strategy: str = "random",
    budget: int = 64,
    objectives: str = "latency_ms+energy_mj+area_mm2",
    seed: int = 0,
    batch: int = 16,
    top: int = 8,
    jobs: int = 1,
    force: bool = False,
    artifacts: Path = Path("artifacts"),
    export_fleet: Path | None = None,
    output: Path | None = None,
    trace: bool = False,
) -> int:
    """Pareto search over Bishop chip configurations

    Every candidate (plus the paper chip) compiles through the pass
    pipeline and replays on the event engine as a dse_point experiment
    through the parallel cached runtime, so re-runs are served from the
    result/program caches.  Prints the Pareto frontier and where the
    paper's chip lands relative to it.
    """
    # Imported lazily: the DSE layer pulls the compiler + engine stack,
    # which `repro list`/`repro cache` don't need.
    from .dse import (
        DSEConfig,
        export_fleet_kinds,
        format_frontier_report,
        parse_objectives,
        run_dse,
    )

    _check_model(model)
    if trace:
        obs.enable()
    axes = parse_objectives(objectives)
    config = DSEConfig(
        model=model,
        strategy=strategy,
        budget=budget,
        objectives=axes,
        seed=seed,
        batch=batch,
    )
    runner = ExperimentRunner(artifacts_root=artifacts, jobs=jobs, force=force)
    started = time.perf_counter()
    report = run_dse(config, runner=runner)
    wall = time.perf_counter() - started

    print(
        f"{model} dse: strategy {strategy}, budget {budget},"
        f" seed {seed}, objectives {'+'.join(axes)}"
    )
    print(
        f"  evaluated {report['evaluated']} chips"
        f" ({report['cache_hits']} cache hits) in {wall:.1f}s"
        f" with {runner.jobs} job(s); space size {report['space']['size']:,}"
    )
    for line in format_frontier_report(report, top=top):
        print(f"  {line}")
    if export_fleet is not None:
        kinds = export_fleet_kinds(report, export_fleet)
        print(
            f"  exported {len(kinds)} chip kind(s) to {export_fleet}"
            f" (use: repro cluster --kinds-file {export_fleet}"
            f" --fleet {next(iter(kinds))}:2)"
        )
    if output is not None:
        output.write_text(canonical_json(report))
        print(f"wrote {output}")
    if trace:
        _write_trace(Path(f"TRACE_dse_{model}.json"))
    return 0


def _cache_stores(artifacts: Path) -> tuple:
    """Both content-addressed stores under the artifact root: the
    experiment result cache (``cache/``) and the compiler's program cache
    (``programs/``)."""
    from .compiler import ProgramCache

    return ResultCache(artifacts / "cache"), ProgramCache(artifacts / "programs")


def _cmd_cache_ls(
    *, artifacts: Path = Path("artifacts"), stats: bool = False
) -> int:
    """list cache entries, newest first"""
    stores = _cache_stores(artifacts)
    for entry in stores[0].list_entries():
        age_s = max(0.0, time.time() - entry.mtime)
        params = ",".join(
            f"{k}={v}" for k, v in sorted(entry.params.items())
        ) or "-"
        if len(params) > 48:
            params = params[:45] + "..."
        print(
            f"{entry.key[:12]}  {entry.experiment:<24}"
            f" {entry.size_bytes:>9}B  {age_s:>8.0f}s ago  {params}"
        )
    all_stats = [store.stats() for store in stores]
    for store, store_stats in zip(stores, all_stats):
        print(
            f"{store_stats.store}: {store_stats.entries} entries,"
            f" {store_stats.total_bytes} bytes ({store.root})"
        )
    if stats:
        print(
            "stats: "
            f"{sum(s.entries for s in all_stats)} entries,"
            f" {sum(s.total_bytes for s in all_stats)} bytes"
            + "".join(
                f" | {s.store} {s.entries} / {s.total_bytes}B"
                for s in all_stats
            )
        )
    return 0


def _cmd_cache_gc(*, artifacts: Path = Path("artifacts"), keep_latest: int) -> int:
    """delete all but the most recent entries"""
    if keep_latest < 0:
        raise ValueError("--keep-latest must be >= 0")
    for store in _cache_stores(artifacts):
        result = store.gc(keep_latest)
        print(
            f"{store.name}: kept {result.kept}, removed {result.removed},"
            f" freed {result.freed_bytes} bytes ({store.root})"
        )
    return 0


def _cmd_zoo() -> int:
    """print the Table-2 model zoo"""
    for name, config in MODEL_ZOO.items():
        print(
            f"{name}: {config.name}  B={config.num_blocks} T={config.timesteps}"
            f" N={config.num_tokens} D={config.embed_dim}"
            f" ({config.input_kind})"
        )
    return 0


# Every subcommand's handler, in `repro --help` order; a nested table is
# a command with its own subcommands (`repro cache ls|gc`).
COMMANDS: dict = {
    "list": _cmd_list,
    "run": _cmd_run,
    "run-all": _cmd_run_all,
    "sweep": _cmd_sweep,
    "compile": _cmd_compile,
    "cluster": _cmd_cluster,
    "dse": _cmd_dse,
    "cache": {"ls": _cmd_cache_ls, "gc": _cmd_cache_gc},
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "analyze": _cmd_analyze,
    "slo": _cmd_slo,
    "zoo": _cmd_zoo,
}

# Per-command wording of repro.schema.OVERRIDABLE_HELP names.
HELP_OVERRIDES: dict[str, dict[str, str]] = {
    "run": {"output": "write the JSON result here instead of stdout"},
    "cluster": {
        "rho": "offered load vs fleet aggregate capacity (at the trace peak"
        " for diurnal/flash_crowd/regional)",
    },
    "trace": {"output": "trace path (default: ./TRACE_<experiment>.json)"},
    "analyze": {
        "target": "trace/artifact JSON path, or an artifact id under"
        " --artifacts",
    },
}


def _add_commands(
    parser: argparse.ArgumentParser, table: dict, dest: str
) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, entry in table.items():
        if isinstance(entry, dict):
            summary = "; ".join(
                f"{child}: {inspect.getdoc(fn).splitlines()[0]}"
                for child, fn in entry.items()
            )
            _add_commands(
                sub.add_parser(name, help=summary), entry, f"{name}_command"
            )
            continue
        doc = inspect.getdoc(entry)
        command = sub.add_parser(
            name, help=doc.splitlines()[0], description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        add_signature(command, entry, HELP_OVERRIDES.get(name))


def build_parser() -> argparse.ArgumentParser:
    """The `repro` parser, generated from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bishop (ISCA 2025) reproduction: run paper experiments.",
    )
    _add_commands(parser, COMMANDS, "command")
    return parser


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    handler, dest = COMMANDS, "command"
    while isinstance(handler, dict):
        name = options.pop(dest)
        handler, dest = handler[name], f"{name}_command"
    try:
        # Honour REPRO_TRACE/REPRO_METRICS from the environment for every
        # command (strict values: an unrecognized spelling is exit 2,
        # never a silent fall-through).
        obs.enable_from_env()
        return handler(**options)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
