"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py A/ B/

``A`` (the parent) and ``B`` (the change) hold result files named
``<workload>-...`` whose last line is a result JSON, as
``perf/run.py --out DIR`` writes them.  One row per workload x metric
gives each side's median and quartiles and, for end-to-end metrics, the
bound from BENCHMARK.json and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is, and the runs' spread is within the bound;
``unresolved``  a side's spread (quartile distance over median) exceeds
                the bound, unless every B run beats every A run.

Exits 1 if any metric regressed or any B run reported incorrect output.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SPECS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def load(directory: Path) -> tuple[dict, int]:
    """``{(workload, metric): [values]}`` and the number of incorrect runs."""
    values: dict[tuple[str, str], list[float]] = {}
    incorrect = 0
    for path in sorted(directory.iterdir()):
        workload = next((w for w in WORKLOADS if path.name.startswith(w + "-")), None)
        if workload is None or not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        incorrect += not result["correct"]
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values.setdefault((workload, name), []).append(float(metric["value"]))
    return values, incorrect


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    ma, qa1, qa3 = summarize(a)
    mb, qb1, qb3 = summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if b_wins:
        return "ok"
    spread = max(
        (qa3 - qa1) / abs(ma) if ma else 0.0,
        (qb3 - qb1) / abs(mb) if mb else 0.0,
    )
    if spread > bound:
        return "unresolved"
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    return "regressed" if worse > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    a, _ = load(args.parent)
    b, incorrect = load(args.change)
    print(
        f"{'workload':<16} {'metric':<32} {'A median [q1, q3]':>34}"
        f" {'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict"
    )
    regressed = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        spec = SPECS.get(name, {})
        ma, qa1, qa3 = summarize(a[key])
        mb, qb1, qb3 = summarize(b[key])
        change = f"{(mb - ma) / abs(ma):+.1%}" if ma else "-"
        bound = spec.get("bound")
        result = verdict(a[key], b[key], spec["better"], bound) if bound is not None else "-"
        regressed += result == "regressed"
        print(
            f"{workload:<16} {name:<32}"
            f" {f'{ma:.6g} [{qa1:.6g}, {qa3:.6g}]':>34}"
            f" {f'{mb:.6g} [{qb1:.6g}, {qb3:.6g}]':>34}"
            f" {change:>8} {bound if bound is not None else '-':>6}  {result}"
        )
    if incorrect:
        print(f"{incorrect} run(s) of {args.change} reported incorrect output")
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
