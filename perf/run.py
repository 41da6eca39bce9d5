"""Run the Bishop benchmark.

One workload, as BENCHMARK.json's command runs it (the last stdout line
is the result JSON)::

    python3 perf/run.py --workload serve_light --seed 0 --seconds 20 --trace 0

All four workloads in sequence, each in a fresh process, with a summary
table (``--trace 1`` adds the traced reruns, their overhead, and the
hotspot shares; ``--out DIR`` keeps every result line for
``perf/compare.py``)::

    python3 perf/run.py --seed 0 [--trace 1] [--out DIR]

The benchmark puts ``src`` on the import path itself and pins
``REPRO_ENGINE=fast``, ``REPRO_PROGRAM_CACHE=off`` and one BLAS/OpenMP
thread before anything imports numpy.  Times are scaled to the
yardstick's reference machine speed (``benchkit/yardstick.py``).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchkit.env import ROOT, pin_environment, source_present

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
# Set-up is timed in this many fresh interpreters per run; the median is
# reported, because one import-dominated sample can swing by 10-20%.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="all-workload mode: keep result lines here")
    # Internal: time one set-up in this fresh interpreter, then exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up seconds of fresh interpreters, from spawn to the timed call,
    net of the yardstick kernels and scaled to the reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        began = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["ready"] - began - probe["kernel_s"]) / probe["slowdown"])
    return samples


def _setup_probe(args) -> int:
    from benchkit import yardstick

    # The sampler covers the heavy imports too; every kernel it runs
    # ends before "ready" and is counted in kernel_s.
    with yardstick.Sampler() as sampler:
        from benchkit.workloads import make_workload

        make_workload(args.workload, args.seed).setup()
    print(json.dumps({
        "ready": time.monotonic(),
        "kernel_s": sampler.overhead_s,
        "slowdown": sampler.slowdown,
    }))
    return 0


def run_workload(args) -> int:
    if args.setup_probe:
        return _setup_probe(args)

    from benchkit import measure
    from benchkit.workloads import make_workload

    setup_samples = [] if args.trace else _setup_samples(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    if args.trace:
        from benchkit.layers import PER_LAYER_UNITS as units
        from benchkit.layers import traced_run

        metrics, records = traced_run(workload, args.seconds, ROOT / "perf" / "out")
    else:
        workload.setup()
        records = measure.run_timed(workload, args.seconds)
        metrics = measure.end_to_end_metrics(
            setup_samples, records, workload.ops_per_round
        )
        units = measure.END_TO_END_UNITS
    verified = measure.verify(workload, records)
    for record in records:
        print(f"op {record.index}: {record.seconds:.4f} s, {record.items} items,"
              f" slowdown {record.slowdown:.3f}x", file=sys.stderr)
        for error in record.errors:
            print(f"op {record.index}: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(records)} ops,"
        f" {verified} checked against goldens"
        + ("" if verified else " (unverified: no goldens for this seed)")
        + f"; raw {measure.round_rate(records, workload.ops_per_round, scaled=False):.4g}"
        f" items per host second at median slowdown"
        f" {statistics.median([r.slowdown for r in records]):.3f}x",
        file=sys.stderr,
    )
    result = measure.result_line(records, metrics, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# all-workload mode
# ----------------------------------------------------------------------
def _child(workload: str, args, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace)],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = "-trace" if trace else ""
        (args.out / f"{workload}{suffix}-seed{args.seed}.json").write_text(lines[-1] + "\n")
    return result


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_all(args) -> int:
    ok = True
    for workload in WORKLOAD_NAMES:
        began = time.monotonic()
        result = _child(workload, args, 0)
        wall = time.monotonic() - began
        ok &= result["correct"]
        print(
            f"== {workload}  ({wall:.1f} s)  attempted {result['attempted']}"
            f"  failed {result['failed']}"
            f"  failed_frac {result['failed'] / result['attempted']:.3g}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:<34} {_fmt(metric['value']):>14} {metric['unit']}")
        if not args.trace:
            continue
        traced = _child(workload, args, 1)
        ok &= traced["correct"]
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        if layers["bench.items_per_ref_s"]:
            overhead = (
                result["metrics"]["items_per_ref_s"]["value"] / layers["bench.items_per_ref_s"]
            )
            print(f"  tracing overhead (traced / untraced time per item): {overhead:.3f}x")
        label, share = _hotspot(workload, layers)
        print(f"  hotspot {label}: {share:.1%}")
        for name, value in layers.items():
            print(f"    {name:<34} {_fmt(value):>14} {traced['metrics'][name]['unit']}")
    return 0 if ok else 1


def _hotspot(workload: str, m: dict) -> tuple[str, float]:
    """The traced run's headline share for ``workload``."""
    def value(name):
        return m.get(name) or 0.0

    if workload == "compile_sweep":
        label, part, whole = (
            "compile.pass.stratify / program",
            value("compile.pass.stratify_s"), value("compile.program_s"),
        )
    elif workload == "cluster_diurnal":
        part = value("cluster.shard_step_total_s")
        label, whole = "cluster.shard_step_total / run", part + value("cluster.coordinator_s")
    else:
        label, part, whole = (
            "serve.scheduler / stream",
            value("serve.scheduler_s"), value("serve.simulate_s"),
        )
    return label, part / whole if whole else 0.0


def main(argv=None) -> int:
    if not source_present():
        print("error: src/repro is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_environment()
    args = _parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
