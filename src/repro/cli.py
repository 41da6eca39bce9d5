"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Show every registered experiment with its paper artifact, cost tier,
    and parameter schema.
run <experiment-id> [--param k=v ...] [--output FILE]
    Run one experiment and print (or write) its JSON result.
run-all [--jobs N] [--force] [--only a,b,...] [--smoke] [--artifacts DIR]
    Run every experiment through the parallel runtime: process-pool
    execution, content-addressed result cache, ``artifacts/<id>.json``
    plus a ``manifest.json`` with timings and cache hits.
    ``--jobs 0`` resolves to one worker per CPU core.
sweep <experiment-id> --param k=v1,v2,... [--jobs N] [--output FILE]
    Cartesian-product parameter sweep of one experiment.
compile <model> [--chip KIND] [--passes SPEC] [--dump FILE]
    Compile one Table-2 model through the pass pipeline
    (``repro.compiler``) and print the program summary: stages, tile
    counts per core class, bundle occupancy, estimated makespans.
    ``--dump`` writes the IR as JSON (``-`` for stdout).
cluster [--fleet SPEC] [--policy P] [--mix MIX] [--rho R] [--seed N]
        [--passes SPEC] [--kinds-file FILE] ...
    Simulate a multi-chip fleet behind the front-end router directly
    (no registry round-trip): prints the fleet summary and per-chip
    breakdown, optionally writing the full report JSON.
    ``--kinds-file`` registers extra chip kinds (e.g. a DSE fleet
    export) before the fleet spec is parsed.  ``--shards K`` partitions
    the fleet into K windowed shard engines on the actor pool (the
    planet-scale path); ``--arrival diurnal|flash_crowd|regional``
    selects the trace-driven workloads and ``--slo-ms`` adds an
    SLO-attainment report.  ``--scheduler continuous`` switches chips
    to continuous batching (stage-boundary join/leave + preemption);
    ``--tenants 'gold:3@64+silver:1'`` enables multi-tenant WFQ with
    admission quotas and a per-tenant report block, and
    ``--priority-mix '0:0.8+1:0.2'`` tags priority tiers.
dse <model> [--strategy S] [--budget N] [--objectives SPEC] [--seed N]
    [--jobs N] [--export-fleet FILE] [--output FILE]
    Multi-objective design-space exploration over Bishop chip
    configurations (``repro.dse``): every candidate compiles through
    the pass pipeline and replays on the event engine, evaluated as
    ``dse_point`` experiments through the parallel cached runtime —
    re-runs are served from the result/program caches.  Prints the
    Pareto frontier and where the paper's chip lands relative to it;
    ``--export-fleet`` writes frontier chips as cluster kind profiles.
cache ls|gc
    Inspect or garbage-collect the runtime's content-addressed result
    cache (``artifacts/cache``); ``gc --keep-latest N`` bounds long
    sweep campaigns.  ``ls --stats`` adds a per-store summary line
    (entry counts and bytes for the result and program caches).
trace <experiment-id> [--param k=v ...] [--smoke] [--output FILE]
    Run one experiment with telemetry on and write a Chrome trace-event
    JSON (wall-clock spans plus simulated-time tracks) loadable at
    https://ui.perfetto.dev.  ``run``/``run-all``/``cluster``/``dse``
    accept ``--trace`` to do the same alongside their normal output.
metrics <experiment-id> | --manifest FILE
    Dump the metrics registry (counters, gauges, sketch-backed
    histograms): either run one experiment with metrics on, or read the
    ``metrics`` block a ``run-all --trace`` recorded in its manifest.
analyze <trace|artifact> [--critical-path] [--self-time] [--diff OTHER]
    Offline analysis of a saved trace or experiment artifact (a file
    path or an artifact id under ``--artifacts``): ``--critical-path``
    extracts the binding-resource chain whose durations sum exactly to
    the makespan (per-resource blocking attribution), ``--self-time``
    rolls the span tree up per name, ``--diff OTHER`` localizes a
    regression to the spans that slowed down (OTHER is the baseline).
    With no mode flags, every analysis that applies to the input runs.
slo <artifact> [--slo-ms MS] [--target T]
    Replay the saved window series of a cluster artifact through the
    SLO monitor: attainment, error-budget burn-down, and burn-rate
    alert transitions, window by window.
zoo
    Print the Table-2 model zoo.

Alerting: ``cluster --alerts`` runs the detector rule engine
(queue-growth, shed-rate, saturation, latency-drift) streaming in the
shard coordinator and writes a JSON incident report;
``run-all --alerts`` records registry health rules and experiment
failures as an ``alerts`` block in the manifest.

Reproducibility: ``run``/``sweep``/``cluster`` accept ``--seed N``,
threaded end-to-end into workload generation and synthetic traces (for
registry experiments it sets the ``seed`` parameter unless one is given
explicitly via ``--param``).

Observability: see docs/OBSERVABILITY.md for the span/metric naming
convention and the ``repro.obs`` API the instrumented layers use.

Performance: the ``perf/`` benchmark (perf/README.md) is the one
measurement and gate; CI runs each of its workloads on the parent and on
the change and fails on a regressed verdict from ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
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
from .schema import ParamSpec, add_flags, signature_params

__all__ = ["main", "build_parser"]


def _shared_flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bishop (ISCA 2025) reproduction: run paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    artifacts = _shared_flag(
        "--artifacts", type=Path, default=Path("artifacts"), metavar="DIR",
        help="artifact/cache root (default: ./artifacts)",
    )
    param = _shared_flag(
        "--param", action="append", default=[], metavar="K=V",
        help="override one experiment parameter (repeatable); `sweep`"
        " takes comma-separated values per axis, K=V1,V2,...",
    )
    smoke = _shared_flag(
        "--smoke", action="store_true",
        help="start from each experiment's cheap smoke params (CI)",
    )
    jobs = _shared_flag(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: 1; 0 = one per core)",
    )
    force = _shared_flag(
        "--force", action="store_true",
        help="ignore and overwrite cached results",
    )
    as_json = _shared_flag(
        "--json", action="store_true", help="print the full payload as JSON"
    )

    sub.add_parser("list", help="list registered experiment ids")

    run = sub.add_parser("run", help="run one experiment", parents=[param])
    run.add_argument("experiment", help="experiment id (see `repro list`)")
    run.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="set the experiment's seed parameter (reproducible workloads)",
    )
    run.add_argument(
        "--output", type=Path, default=None, help="write JSON here instead of stdout"
    )
    run.add_argument(
        "--trace", action="store_true",
        help="run with telemetry on and write TRACE_<experiment>.json",
    )

    run_all = sub.add_parser(
        "run-all", help="run every experiment via the parallel cached runtime",
        parents=[jobs, force, smoke, artifacts],
    )
    run_all.add_argument(
        "--only", default=None, metavar="ID,ID,...",
        help="comma-separated subset of experiment ids",
    )
    run_all.add_argument(
        "--trace", action="store_true",
        help="run with telemetry on: write trace.json under the artifact"
        " root and record the metrics registry in the manifest",
    )
    run_all.add_argument(
        "--alerts", action="store_true",
        help="record an alerts block in the manifest: registry health"
        " rules (dropped spans, corrupt cache entries), failed"
        " experiments, and alerts fired inside simulated runs",
    )

    sweep = sub.add_parser(
        "sweep", help="parameter sweep of one experiment",
        parents=[param, jobs, force, artifacts],
    )
    sweep.add_argument("experiment", help="experiment id (see `repro list`)")
    sweep.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="set the experiment's seed parameter on every grid point",
    )
    sweep.add_argument(
        "--output", type=Path, default=None,
        help="also write the sweep payload JSON here",
    )

    compile_cmd = sub.add_parser(
        "compile", help="compile one zoo model into a chip program"
    )
    compile_cmd.add_argument("model", help="Table-2 model id (see `repro zoo`)")
    compile_cmd.add_argument(
        "--chip", default="standard",
        help="chip kind: standard | sparse_heavy | dense_heavy",
    )
    compile_cmd.add_argument("--bs-t", type=int, default=2, metavar="N")
    compile_cmd.add_argument("--bs-n", type=int, default=4, metavar="N")
    compile_cmd.add_argument(
        "--passes", default="all", metavar="SPEC",
        help="compiler passes: all | none | '+'-joined subset of"
        " packing,stratify,ecp,schedule",
    )
    compile_cmd.add_argument("--seed", type=int, default=0, metavar="N")
    # The schema's finite-float cast: nan/inf are usage errors (exit 2).
    finite_float = ParamSpec(float, 0.0).parse_flag
    compile_cmd.add_argument(
        "--dram-gbps", type=finite_float, default=None, metavar="G",
        help="override the chip's DRAM bandwidth (GB/s)",
    )
    compile_cmd.add_argument(
        "--theta-q", type=finite_float, default=None, metavar="T",
        help="enable ECP with this Q threshold (requires --theta-k)",
    )
    compile_cmd.add_argument(
        "--theta-k", type=finite_float, default=None, metavar="T",
        help="enable ECP with this K threshold (requires --theta-q)",
    )
    compile_cmd.add_argument(
        "--dump", type=Path, default=None, metavar="FILE",
        help="write the program IR as JSON ('-' for stdout)",
    )
    compile_cmd.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk program cache",
    )

    cluster = sub.add_parser(
        "cluster", help="simulate a multi-chip fleet behind the router"
    )
    add_flags(cluster, signature_params(
        _run_cluster,
        {"rho": "offered load vs fleet aggregate capacity (at the trace"
         " peak for diurnal/flash_crowd/regional)"},
        kinds=(bool, int, float, str), keyword_only=True,
    ))
    cluster.add_argument(
        "--kinds-file", type=Path, default=None, metavar="FILE",
        help="register chip kinds from a JSON kinds file (e.g. a"
        " `repro dse --export-fleet` export) before parsing --fleet",
    )
    cluster.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="also write the full cluster report JSON here",
    )
    cluster.add_argument(
        "--trace", action="store_true",
        help="run with telemetry on and write TRACE_cluster.json"
        " (wall-clock spans plus simulated-time window tracks)",
    )

    dse = sub.add_parser(
        "dse", help="Pareto search over Bishop chip configurations",
        parents=[jobs, force, artifacts],
    )
    dse.add_argument("model", help="Table-2 model id (see `repro zoo`)")
    dse.add_argument(
        "--strategy", default="random",
        help="search strategy: grid | random | evolutionary",
    )
    dse.add_argument(
        "--budget", type=int, default=64, metavar="N",
        help="searched candidate chips (the paper chip is always evaluated"
        " in addition)",
    )
    dse.add_argument(
        "--objectives", default="latency_ms+energy_mj+area_mm2", metavar="SPEC",
        help="'+'-separated frontier axes: latency_ms, energy_mj,"
        " edp_uj_ms, area_mm2",
    )
    dse.add_argument("--seed", type=int, default=0, metavar="N")
    dse.add_argument(
        "--batch", type=int, default=16, metavar="N",
        help="proposal batch size (the parallelism grain)",
    )
    dse.add_argument(
        "--top", type=int, default=8, metavar="N",
        help="frontier rows to print (default: 8)",
    )
    dse.add_argument(
        "--export-fleet", type=Path, default=None, metavar="FILE",
        help="write frontier chips as cluster chip-kind profiles",
    )
    dse.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="write the full frontier report JSON here",
    )
    dse.add_argument(
        "--trace", action="store_true",
        help="run with telemetry on and write TRACE_dse_<model>.json",
    )

    cache = sub.add_parser(
        "cache", help="inspect / garbage-collect the result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list cache entries, newest first", parents=[artifacts]
    )
    cache_ls.add_argument(
        "--stats", action="store_true",
        help="append a per-store summary line (result vs program cache)",
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="delete all but the most recent entries", parents=[artifacts]
    )
    cache_gc.add_argument(
        "--keep-latest", type=int, required=True, metavar="N",
        help="number of most-recent entries to keep",
    )

    trace = sub.add_parser(
        "trace", help="run one experiment with tracing on; write Perfetto JSON",
        parents=[param, smoke],
    )
    trace.add_argument("experiment", help="experiment id (see `repro list`)")
    trace.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="set the experiment's seed parameter (reproducible workloads)",
    )
    trace.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="trace path (default: ./TRACE_<experiment>.json)",
    )

    metrics = sub.add_parser(
        "metrics", help="dump the metrics registry from a run or a manifest",
        parents=[param, smoke, as_json],
    )
    metrics.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id to run with metrics on (see `repro list`)",
    )
    metrics.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="set the experiment's seed parameter (reproducible workloads)",
    )
    metrics.add_argument(
        "--manifest", type=Path, default=None, metavar="FILE",
        help="read the metrics block out of a `run-all --trace` manifest"
        " instead of running an experiment",
    )

    analyze = sub.add_parser(
        "analyze", help="analyze a saved trace or artifact offline",
        parents=[artifacts, as_json],
    )
    analyze.add_argument(
        "target",
        help="trace/artifact JSON path, or an artifact id under --artifacts",
    )
    analyze.add_argument(
        "--critical-path", action="store_true",
        help="extract the binding-resource chain (durations sum to the"
        " makespan) with per-resource blocking attribution",
    )
    analyze.add_argument(
        "--self-time", action="store_true",
        help="span-tree rollup: wall-clock total and self time per span name",
    )
    analyze.add_argument(
        "--diff", default=None, metavar="OTHER",
        help="diff self-times against a baseline trace (path or artifact"
        " id): localizes a regression to specific spans",
    )
    analyze.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="rows to print per table (default: 12)",
    )

    slo = sub.add_parser(
        "slo", help="replay a cluster artifact's window series through the"
        " SLO monitor", parents=[artifacts, as_json],
    )
    slo.add_argument(
        "artifact",
        help="cluster report JSON path, or an artifact id under --artifacts",
    )
    slo.add_argument(
        "--slo-ms", type=float, default=0.0, metavar="MS",
        help="latency SLO override (default: the artifact's slo block)",
    )
    slo.add_argument(
        "--target", type=float, default=0.0, metavar="T",
        help="attainment target override in (0,1) (default: the"
        " artifact's, else 0.99)",
    )

    sub.add_parser("zoo", help="print the Table-2 model zoo")
    return parser


def _parse_only(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


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


def _traced_params(args) -> dict:
    """Params for `trace`/`metrics`: the experiment's smoke params (when
    ``--smoke``) under any explicit ``--param``/``--seed`` overrides."""
    params = _parse_single_params(args.experiment, args.param, args.seed)
    if args.smoke:
        params = {**get_experiment(args.experiment).smoke_params, **params}
    return params


def _run_traced_experiment(args):
    """Run one experiment uncached with telemetry on.

    Returns the outcome, or ``None`` (error already printed).  Bypassing
    the result cache matters: a cache hit would execute nothing and
    record an empty trace.
    """
    params = _traced_params(args)
    obs.enable()
    outcome = ExperimentRunner(artifacts_root=None).run(args.experiment, params)
    if not outcome.ok:
        print(outcome.error, file=sys.stderr)
        return None
    return outcome


def _run_trace(args) -> int:
    """The `repro trace` body: one traced run, one Perfetto JSON out."""
    outcome = _run_traced_experiment(args)
    if outcome is None:
        return 1
    output = args.output or Path(f"TRACE_{args.experiment}.json")
    _write_trace(output, obs.result_events(outcome.result))
    return 0


def _run_metrics(args) -> int:
    """The `repro metrics` body: dump a registry snapshot, live or saved."""
    if args.manifest is not None:
        try:
            payload = json.loads(args.manifest.read_text())
        except FileNotFoundError:
            print(f"--manifest: {args.manifest} not found", file=sys.stderr)
            return 2
        except json.JSONDecodeError as error:
            print(f"--manifest: {args.manifest}: {error}", file=sys.stderr)
            return 2
        snapshot = payload.get("metrics") if isinstance(payload, dict) else None
        if not snapshot:
            print(
                f"{args.manifest}: no metrics block (record one with"
                " `repro run-all --trace`)",
                file=sys.stderr,
            )
            return 1
    else:
        if args.experiment is None:
            print(
                "metrics: give an experiment id or --manifest FILE",
                file=sys.stderr,
            )
            return 2
        if _run_traced_experiment(args) is None:
            return 1
        snapshot = obs.registry.to_dict()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True, default=float))
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


def _run_analyze(args) -> int:
    """The `repro analyze` body: critical path / self time / trace diff."""
    path = _resolve_artifact(args.target, args.artifacts)
    doc = _load_json(path)
    is_trace = isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list)
    modes = [
        mode for mode, wanted in (
            ("critical-path", args.critical_path),
            ("self-time", args.self_time),
            ("diff", args.diff is not None),
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
        if not args.json:
            for label, cp in paths:
                _print_critical_path(label, cp, args.top)

    if "self-time" in modes:
        if not is_trace:
            raise ValueError(
                f"{path}: --self-time needs a Chrome trace document"
                " (written by `repro trace` or any --trace flag)"
            )
        rows = obs.self_time(doc)
        payload["self_time"] = rows
        if not args.json:
            print(f"self time [{path.name}]: {len(rows)} span names")
            width = max((len(r["name"]) for r in rows[:args.top]), default=4)
            for row in rows[:args.top]:
                print(
                    f"  {row['name']:<{width}}  x{row['count']:<5}"
                    f" self {row['self_us'] / 1e3:10.3f} ms"
                    f"  total {row['total_us'] / 1e3:10.3f} ms"
                )

    if "diff" in modes:
        other = _resolve_artifact(args.diff, args.artifacts)
        old_doc = _load_json(other)
        if not is_trace or not isinstance(old_doc.get("traceEvents"), list):
            raise ValueError(
                "--diff compares two Chrome trace documents"
                f" ({path} vs {other})"
            )
        rows = obs.diff_traces(old_doc, doc)
        payload["diff"] = {"baseline": str(other), "rows": rows}
        if not args.json:
            print(f"trace diff [{other.name} -> {path.name}]:")
            width = max((len(r["name"]) for r in rows[:args.top]), default=4)
            for row in rows[:args.top]:
                delta_ms = row["delta_self_us"] / 1e3
                print(
                    f"  {row['name']:<{width}}  {delta_ms:+10.3f} ms self"
                    f"  ({row['old_self_us'] / 1e3:.3f} ->"
                    f" {row['new_self_us'] / 1e3:.3f} ms) {row['status']}"
                )

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return 0


def _run_slo(args) -> int:
    """The `repro slo` body: offline SLO replay over a saved window series."""
    path = _resolve_artifact(args.artifact, args.artifacts)
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
    slo_ms = args.slo_ms or saved.get("slo_ms")
    if not slo_ms:
        raise ValueError(
            f"{path}: no SLO in the artifact; pass --slo-ms MS"
        )
    target = args.target or saved.get("target", 0.99)
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
    if args.json:
        print(json.dumps(
            {"input": str(path), "slo": summary,
             "windows": [s.to_dict() for s in monitor.states]},
            indent=2, sort_keys=True, default=float,
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


def _run_cluster(
    kinds_file: Path | None,
    output: Path | None,
    trace: bool,
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
    scheduler: Literal["auto", "fifo", "batch", "continuous"] = "auto",
    tenants: str = "",
    priority_mix: str = "",
    max_batch: int = 1,
    max_inflight: int = 2,
    queue_capacity: int = 0,
    autoscale_max: int = 0,
    passes: str = "all",
) -> int:
    """The `repro cluster` body: build the fleet, serve the stream, print."""
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
        max_batch=1 if scheduler == "fifo" else max_batch,
        max_inflight=max_inflight,
        mode="continuous" if scheduler == "continuous" else "static",
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


def _run_compile(args) -> int:
    """The `repro compile` body: compile one model, print the summary."""
    import dataclasses

    # Imported lazily, like the cluster layer: compilation pulls the full
    # simulator stack, which `repro list`/`repro cache` don't need.
    from .algo import ECPConfig
    from .cluster import chip_config
    from .compiler import PassConfig, ProgramCache, compile_model, default_program_cache, program_key
    from .model import MODEL_ZOO

    if args.model not in MODEL_ZOO:
        print(
            f"unknown model {args.model!r}; options {sorted(MODEL_ZOO)}",
            file=sys.stderr,
        )
        return 2
    if (args.theta_q is None) != (args.theta_k is None):
        print("--theta-q and --theta-k must be given together", file=sys.stderr)
        return 2
    config = chip_config(args.chip, args.bs_t, args.bs_n)
    if args.dram_gbps is not None:
        if args.dram_gbps <= 0:
            print("--dram-gbps must be positive", file=sys.stderr)
            return 2
        config = config.with_overrides(
            dram=dataclasses.replace(
                config.dram, bandwidth_bytes_per_s=args.dram_gbps * 1e9
            )
        )
    ecp = None
    if args.theta_q is not None:
        ecp = ECPConfig(
            theta_q=args.theta_q, theta_k=args.theta_k, spec=config.bundle_spec
        )
    pass_config = PassConfig.parse(args.passes)
    cache = ProgramCache(None) if args.no_cache else default_program_cache()
    key = program_key(args.model, config, pass_config, seed=args.seed, ecp=ecp)
    # get(), not `in`: a corrupted on-disk entry is a miss (and self-heals).
    cached = cache.get(key) is not None
    program = compile_model(
        args.model, config, seed=args.seed, ecp=ecp, passes=pass_config,
        cache=cache,
    )

    if args.dump is not None and str(args.dump) == "-":
        print(canonical_json(program.to_dict()))
        return 0

    counts = program.tile_counts()
    phases = program.stage_counts()
    scheduled = program.scheduled_latency_s
    print(
        f"{args.model} on {args.chip} chip (bs {args.bs_t}x{args.bs_n},"
        f" seed {args.seed}), passes {pass_config.spec()}"
        + (f", ecp θq={args.theta_q:g} θk={args.theta_k:g}" if ecp else "")
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
        + (" (bypassed)" if args.no_cache else "")
    )
    if args.dump is not None:
        args.dump.write_text(canonical_json(program.to_dict()))
        print(f"wrote {args.dump}")
    return 0


def _run_dse(args) -> int:
    """The `repro dse` body: search, print the frontier, export winners."""
    # Imported lazily: the DSE layer pulls the compiler + engine stack,
    # which `repro list`/`repro cache` don't need.
    from .dse import (
        DSEConfig,
        export_fleet_kinds,
        format_frontier_report,
        parse_objectives,
        run_dse,
    )
    from .model import MODEL_ZOO

    if args.model not in MODEL_ZOO:
        print(
            f"unknown model {args.model!r}; options {sorted(MODEL_ZOO)}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        obs.enable()
    objectives = parse_objectives(args.objectives)
    config = DSEConfig(
        model=args.model,
        strategy=args.strategy,
        budget=args.budget,
        objectives=objectives,
        seed=args.seed,
        batch=args.batch,
    )
    runner = ExperimentRunner(
        artifacts_root=args.artifacts, jobs=args.jobs, force=args.force
    )
    started = time.perf_counter()
    report = run_dse(config, runner=runner)
    wall = time.perf_counter() - started

    print(
        f"{args.model} dse: strategy {args.strategy}, budget {args.budget},"
        f" seed {args.seed}, objectives {'+'.join(objectives)}"
    )
    print(
        f"  evaluated {report['evaluated']} chips"
        f" ({report['cache_hits']} cache hits) in {wall:.1f}s"
        f" with {runner.jobs} job(s); space size {report['space']['size']:,}"
    )
    for line in format_frontier_report(report, top=args.top):
        print(f"  {line}")
    if args.export_fleet is not None:
        kinds = export_fleet_kinds(report, args.export_fleet)
        print(
            f"  exported {len(kinds)} chip kind(s) to {args.export_fleet}"
            f" (use: repro cluster --kinds-file {args.export_fleet}"
            f" --fleet {next(iter(kinds))}:2)"
        )
    if args.output is not None:
        args.output.write_text(canonical_json(report))
        print(f"wrote {args.output}")
    if args.trace:
        _write_trace(Path(f"TRACE_dse_{args.model}.json"))
    return 0


def _run_cache(args) -> int:
    """The `repro cache ls|gc` body.

    Covers both content-addressed stores under the artifact root: the
    experiment result cache (``cache/``) and the compiler's program cache
    (``programs/``).
    """
    from .compiler import ProgramCache

    results = ResultCache(Path(args.artifacts) / "cache")
    stores = (results, ProgramCache(Path(args.artifacts) / "programs"))
    if args.cache_command == "ls":
        for entry in results.list_entries():
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
        for store, stats in zip(stores, all_stats):
            print(
                f"{stats.store}: {stats.entries} entries,"
                f" {stats.total_bytes} bytes ({store.root})"
            )
        if args.stats:
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
    if args.keep_latest < 0:
        print("--keep-latest must be >= 0", file=sys.stderr)
        return 2
    for store in stores:
        result = store.gc(args.keep_latest)
        print(
            f"{store.name}: kept {result.kept}, removed {result.removed},"
            f" freed {result.freed_bytes} bytes ({store.root})"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    # Honour REPRO_TRACE/REPRO_METRICS from the environment for every
    # command (the same contract as REPRO_ENGINE: strict values, an
    # unrecognized spelling is exit 2, never a silent fall-through).
    try:
        obs.enable_from_env()
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            experiment = EXPERIMENTS[name]
            params = ",".join(sorted(experiment.params)) or "-"
            print(
                f"{name:<{width}}  {experiment.artifact:<9} {experiment.cost:<7}"
                f" params:{params:<24} {experiment.description}"
            )
        return 0

    if args.command == "zoo":
        for name, config in MODEL_ZOO.items():
            print(
                f"{name}: {config.name}  B={config.num_blocks} T={config.timesteps}"
                f" N={config.num_tokens} D={config.embed_dim}"
                f" ({config.input_kind})"
            )
        return 0

    if args.command == "run":
        try:
            params = _parse_single_params(args.experiment, args.param, args.seed)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        if args.trace:
            obs.enable()
        outcome = ExperimentRunner(artifacts_root=None).run(args.experiment, params)
        if not outcome.ok:
            print(outcome.error, file=sys.stderr)
            return 1
        text = json.dumps(outcome.result, indent=2, default=float, sort_keys=True)
        if args.output is not None:
            args.output.write_text(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        if args.trace:
            _write_trace(
                Path(f"TRACE_{args.experiment}.json"),
                obs.result_events(outcome.result),
            )
        return 0

    if args.command == "run-all":
        if args.trace:
            obs.enable()
        try:
            runner = ExperimentRunner(
                artifacts_root=args.artifacts, jobs=args.jobs, force=args.force
            )
            summary = runner.run_all(
                only=_parse_only(args.only), smoke=args.smoke,
                alerts=args.alerts,
            )
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        _print_summary(summary)
        if args.trace:
            root = (
                Path(summary.manifest_path).parent
                if summary.manifest_path
                else Path(args.artifacts)
            )
            _write_trace(root / "trace.json")
        return 0 if summary.ok else 1

    if args.command == "compile":
        try:
            return _run_compile(args)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2

    if args.command == "cluster":
        try:
            options = {k: v for k, v in vars(args).items() if k != "command"}
            return _run_cluster(**options)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2

    if args.command == "dse":
        try:
            return _run_dse(args)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2

    if args.command == "cache":
        return _run_cache(args)

    if args.command in ("trace", "metrics", "analyze", "slo"):
        handler = {
            "trace": _run_trace,
            "metrics": _run_metrics,
            "analyze": _run_analyze,
            "slo": _run_slo,
        }[args.command]
        try:
            return handler(args)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2

    if args.command == "sweep":
        try:
            runner = ExperimentRunner(
                artifacts_root=args.artifacts, jobs=args.jobs, force=args.force
            )
            experiment = get_experiment(args.experiment)
            grid = parse_param_specs(experiment, args.param)
            if _seed_applies(experiment, "seed" in grid, args.seed):
                grid = {**grid, "seed": [args.seed]}
            summary = runner.sweep(args.experiment, grid)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        _print_summary(summary)
        if runner.store is not None:
            sweep_path = runner.store.sweep_path(args.experiment)
            print(f"sweep: {sweep_path}")
            if args.output is not None:
                args.output.write_text(sweep_path.read_text())
                print(f"wrote {args.output}")
        elif args.output is not None:  # pragma: no cover - store always set here
            args.output.write_text(canonical_json([vars(o) for o in summary.outcomes]))
        return 0 if summary.ok else 1

    return 1  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
