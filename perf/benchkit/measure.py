"""The timed loop, output checks, and the end-to-end metrics of one run."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import obs

from . import yardstick
from .golden import compare_digest, load_goldens

__all__ = [
    "END_TO_END_UNITS",
    "OpRecord",
    "end_to_end_metrics",
    "peak_rss_mb",
    "result_line",
    "round_rate",
    "run_timed",
    "verify",
]

# name -> unit; BENCHMARK.json's "end_to_end" list states the same pairs.
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    """One timed operation: host seconds, work items, output digest, errors,
    and the machine's slowdown around it (``yardstick.slowdown``)."""

    index: int
    seconds: float
    items: int = 0
    digest: dict | None = None
    errors: list[str] = field(default_factory=list)
    slowdown: float = 1.0


def run_timed(workload, seconds: float, on_op=None) -> list[OpRecord]:
    """Run whole rounds of operations for about ``seconds`` of wall time.

    At least one round runs; another starts only if a round of the mean
    length so far still ends within ``seconds``.  Only ``workload.run`` is
    timed, net of the yardstick kernels sampled while it runs
    (``yardstick.Sampler``), which also give the op's slowdown; building
    inputs, digesting and checking outputs happen outside the clock.  An
    operation that raises anywhere is recorded as failed and the loop
    goes on.  ``on_op(index)`` is called after each one.
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    index = 0
    while True:
        if index and index % workload.ops_per_round == 0:
            elapsed = time.perf_counter() - start
            rounds = index // workload.ops_per_round
            if elapsed + elapsed / rounds > seconds:
                break
        record = OpRecord(index, 0.0)
        try:
            inputs = workload.inputs(index)
            sampler = yardstick.Sampler()
            try:
                with obs.span("bench.op", cat="bench", index=index), sampler:
                    output = workload.run(inputs)
            finally:
                record.seconds = sampler.seconds
                record.slowdown = sampler.slowdown
            record.items = workload.items(output)
            record.digest = workload.digest(output)
            record.errors = workload.check(inputs, output)
        except Exception:  # a failed operation must not stop the run
            record.errors = [traceback.format_exc(limit=4)]
        records.append(record)
        if on_op is not None:
            on_op(index)
        index += 1
    return records


def verify(workload, records: list[OpRecord]) -> int:
    """Compare digests with the committed goldens; returns how many ops
    had goldens.  Mismatches are appended to the records' errors."""
    goldens = load_goldens(workload.name, workload.seed)
    for record, expected in zip(records, goldens):
        if record.digest is not None:
            record.errors += compare_digest(expected, record.digest)
    return min(len(goldens), len(records))


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux and bytes on macOS.
    scale = 1 / (1024 * 1024) if sys.platform == "darwin" else 1 / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def round_rate(records: list[OpRecord], ops_per_round: int, scaled: bool = True) -> float:
    """Median over rounds of the items a round completes per second.

    A round is the unit of fixed work: one stream, one cluster run, or
    all twelve compile programs together (one program's cost differs
    from the next by up to 5x).  With ``scaled`` each operation's host
    seconds are divided by its slowdown, giving seconds at the
    yardstick's reference speed; without it they are raw host seconds.
    The median discards rounds hit by a short burst of load.
    """
    rates = []
    for start in range(0, len(records), ops_per_round):
        chunk = records[start:start + ops_per_round]
        seconds = sum(r.seconds / (r.slowdown if scaled else 1.0) for r in chunk)
        rates.append(sum(r.items for r in chunk) / seconds if seconds else 0.0)
    return statistics.median(rates)


def end_to_end_metrics(
    setup_samples: list[float], records: list[OpRecord], ops_per_round: int
) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_ref_s": round_rate(records, ops_per_round),
        "peak_rss_mb": peak_rss_mb(),
    }


def result_line(records: list[OpRecord], metrics: dict, units: dict) -> dict:
    """The benchmark's final JSON object."""
    failed = sum(1 for r in records if r.errors)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
