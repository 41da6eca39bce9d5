"""Mergeable streaming percentile sketch for latency statistics.

Planet-scale runs cannot keep one ``ServedRequest`` per request in memory
— a million-request day of full latency lists is exactly what the sharded
cluster simulation must avoid shipping between processes.  A
:class:`LatencySketch` summarizes a latency sample set in a fixed-size
log-spaced histogram (HDR-histogram style) that supports the same role a
t-digest plays in serving telemetry: streaming inserts, bounded memory,
and **merge** — two shards' sketches combine into the fleet's sketch.

Log-spaced buckets are chosen over t-digest centroids deliberately: the
bucket edges are fixed up front, so merging is exact integer addition of
counts and therefore *associative and commutative* — the merged
percentiles are a pure function of the sample multiset, independent of
shard count, merge order, or worker scheduling.  (A t-digest's centroids
depend on insertion/merge order, which would make sharded runs
non-deterministic.)  The price is a fixed relative-error bound per
bucket: with the default ``rel_err=0.005`` every reported percentile is
within 0.5% of the exact sample value, comfortably inside the 1%
conformance budget the sharded cluster report is tested against.

Exact ``count`` / ``sum`` / ``min`` / ``max`` ride along, so the mean is
exact and degenerate sets (empty, single sample) reproduce
``latency_stats``'s contract bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LatencySketch"]

# Default dynamic range: 0.1 µs .. 10,000 s covers every latency the
# simulator can produce (sub-layer timings through day-long backlogs).
_DEFAULT_LO = 1e-7
_DEFAULT_HI = 1e4
_DEFAULT_REL_ERR = 0.005

# numpy sums float64 in pairwise blocks of 8; below one block its
# reduction is a plain left-to-right loop from 0.0, so a shorter batch
# summed in Python lands on the same ``sum_s`` bit for bit.
_PAIRWISE_BLOCK = 8


class LatencySketch:
    """Fixed-size mergeable histogram of latency samples (seconds).

    Samples below ``lo_s`` clamp into the first bucket and samples above
    ``hi_s`` into the last, so inserts never fail; the exact min/max
    bracket reported percentiles regardless.  Two sketches merge only if
    their bucket geometry matches (same ``lo_s`` / ``hi_s`` /
    ``rel_err``).
    """

    __slots__ = (
        "lo_s", "hi_s", "rel_err", "count", "sum_s", "min_s", "max_s",
        "_counts", "_log_lo", "_log_growth",
    )

    def __init__(
        self,
        lo_s: float = _DEFAULT_LO,
        hi_s: float = _DEFAULT_HI,
        rel_err: float = _DEFAULT_REL_ERR,
    ):
        if not 0.0 < lo_s < hi_s:
            raise ValueError("need 0 < lo_s < hi_s")
        if not 0.0 < rel_err < 1.0:
            raise ValueError("rel_err must be in (0, 1)")
        self.lo_s = float(lo_s)
        self.hi_s = float(hi_s)
        self.rel_err = float(rel_err)
        # Geometric buckets with midpoint relative error <= rel_err:
        # growth g = (1+e)/(1-e) makes sqrt(edge_k * edge_{k+1}) within
        # e of every sample in the bucket.
        growth = (1.0 + self.rel_err) / (1.0 - self.rel_err)
        self._log_lo = math.log(self.lo_s)
        self._log_growth = math.log(growth)
        num_bins = int(math.ceil(
            (math.log(self.hi_s) - self._log_lo) / self._log_growth
        ))
        self._counts = np.zeros(num_bins, dtype=np.int64)
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf

    # -- geometry ----------------------------------------------------------
    @property
    def num_bins(self) -> int:
        return int(self._counts.size)

    def _bin_edges(self, indices: np.ndarray) -> np.ndarray:
        return np.exp(self._log_lo + indices * self._log_growth)

    def compatible(self, other: "LatencySketch") -> bool:
        return (
            self.lo_s == other.lo_s
            and self.hi_s == other.hi_s
            and self.rel_err == other.rel_err
        )

    # -- inserts -----------------------------------------------------------
    def add(self, value_s: float) -> None:
        """Insert one sample (scalar fast path: no array round-trip)."""
        value = float(value_s)
        if not math.isfinite(value):
            raise ValueError("latency samples must be finite")
        self.count += 1
        self.sum_s += value
        if value < self.min_s:
            self.min_s = value
        if value > self.max_s:
            self.max_s = value
        index = int(math.floor(
            (math.log(max(value, self.lo_s)) - self._log_lo) / self._log_growth
        ))
        self._counts[min(max(index, 0), self.num_bins - 1)] += 1

    def add_many(self, values_s) -> None:
        """Insert a batch of latency samples (vectorized).

        A batch shorter than one numpy summation block takes a scalar
        path that skips the full-histogram ``bincount``; it matches the
        vector path exactly: the same ``np.log`` call, a left-to-right
        sum, and numpy's last-of-equal ``min``/``max``.
        """
        values = np.asarray(values_s, dtype=float).ravel()
        if values.size == 0:
            return
        if values.size < _PAIRWISE_BLOCK:
            self._add_few(values)
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("latency samples must be finite")
        self.count += int(values.size)
        self.sum_s += float(values.sum())
        self.min_s = min(self.min_s, float(values.min()))
        self.max_s = max(self.max_s, float(values.max()))
        clipped = np.maximum(values, self.lo_s)
        indices = np.clip(
            np.floor(
                (np.log(clipped) - self._log_lo) / self._log_growth
            ).astype(np.int64),
            0,
            self.num_bins - 1,
        )
        binned = np.bincount(indices, minlength=self.num_bins)
        self._counts += binned.astype(np.int64)

    def _add_few(self, values: np.ndarray) -> None:
        """``add_many`` of 1..7 samples, one bin increment per sample."""
        samples = values.tolist()
        if not all(map(math.isfinite, samples)):
            raise ValueError("latency samples must be finite")
        total = 0.0
        low = high = samples[0]
        for value in samples:
            total += value
            if value <= low:
                low = value
            if value >= high:
                high = value
        self.count += len(samples)
        self.sum_s += total
        self.min_s = min(self.min_s, low)
        self.max_s = max(self.max_s, high)
        # The vector path's own np.log call: math.log differs from it in
        # the last ulp on a few values, enough to cross a bin edge.
        logs = np.log(np.maximum(values, self.lo_s)).tolist()
        counts, last = self._counts, self.num_bins - 1
        log_lo, log_growth = self._log_lo, self._log_growth
        for log_v in logs:
            index = math.floor((log_v - log_lo) / log_growth)
            counts[min(max(index, 0), last)] += 1

    # -- merge -------------------------------------------------------------
    def update(self, other: "LatencySketch") -> "LatencySketch":
        """Merge ``other`` into this sketch in place; returns ``self``.

        Merging is exact count addition, so it is associative and
        commutative: any merge tree over the same sketches reports
        identical statistics.
        """
        if not self.compatible(other):
            raise ValueError("cannot merge sketches with different geometry")
        self.count += other.count
        self.sum_s += other.sum_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)
        self._counts += other._counts
        return self

    def merged(self, other: "LatencySketch") -> "LatencySketch":
        """A new sketch holding both sample sets (non-destructive)."""
        return self.copy().update(other)

    def copy(self) -> "LatencySketch":
        clone = LatencySketch(self.lo_s, self.hi_s, self.rel_err)
        clone.count = self.count
        clone.sum_s = self.sum_s
        clone.min_s = self.min_s
        clone.max_s = self.max_s
        clone._counts = self._counts.copy()
        return clone

    # -- queries -----------------------------------------------------------
    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) in seconds; 0.0 when empty.

        Matches ``numpy.percentile``'s rank convention (linear
        interpolation over ranks) at bucket resolution; the returned
        value is the geometric bucket midpoint clamped to the exact
        observed [min, max], so single-sample and extreme queries are
        exact.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min_s
        if q == 100.0:
            return self.max_s
        # numpy's convention: rank (q/100)(n-1) linearly interpolates the
        # two straddling order statistics.  Each order statistic is read
        # as its bucket's geometric midpoint (within rel_err of the true
        # sample), so the interpolated result inherits the same bound.
        rank = (q / 100.0) * (self.count - 1)
        low_rank = math.floor(rank)
        cumulative = np.cumsum(self._counts)
        low = self._rank_value(cumulative, low_rank)
        if rank == low_rank:
            return low
        high = self._rank_value(cumulative, low_rank + 1)
        return low + (rank - low_rank) * (high - low)

    def _rank_value(self, cumulative: np.ndarray, rank: int) -> float:
        """The ``rank``-th (0-based) order statistic at bucket resolution."""
        index = int(np.searchsorted(cumulative, rank, side="right"))
        index = min(index, self.num_bins - 1)
        edges = self._bin_edges(np.array([index, index + 1]))
        midpoint = math.sqrt(edges[0] * edges[1])
        return min(max(midpoint, self.min_s), self.max_s)

    def percentiles(self, qs) -> list[float]:
        return [self.percentile(q) for q in qs]

    def cdf(self, value_s: float) -> float:
        """Fraction of samples <= ``value_s`` (SLO attainment); 0 if empty.

        Within the value's bucket the mass is interpolated on the log
        scale, so the estimate is monotone in ``value_s``.
        """
        if math.isnan(value_s):
            raise ValueError(f"cdf threshold must not be NaN, got {value_s!r}")
        if self.count == 0:
            return 0.0
        if value_s >= self.max_s:
            return 1.0
        if value_s < self.min_s:
            return 0.0
        log_v = math.log(max(value_s, self.lo_s))
        position = (log_v - self._log_lo) / self._log_growth
        index = min(max(int(math.floor(position)), 0), self.num_bins - 1)
        below = float(self._counts[:index].sum())
        fraction = min(max(position - index, 0.0), 1.0)
        partial = float(self._counts[index]) * fraction
        return min(1.0, (below + partial) / self.count)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload; sparse (only non-empty buckets)."""
        occupied = np.nonzero(self._counts)[0]
        return {
            "lo_s": self.lo_s,
            "hi_s": self.hi_s,
            "rel_err": self.rel_err,
            "count": int(self.count),
            "sum_s": self.sum_s,
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s if self.count else None,
            "bins": {
                str(int(i)): int(self._counts[i]) for i in occupied
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatencySketch":
        sketch = cls(
            lo_s=float(payload["lo_s"]),
            hi_s=float(payload["hi_s"]),
            rel_err=float(payload["rel_err"]),
        )
        sketch.count = int(payload["count"])
        sketch.sum_s = float(payload["sum_s"])
        if sketch.count:
            sketch.min_s = float(payload["min_s"])
            sketch.max_s = float(payload["max_s"])
        for raw_index, raw_count in payload["bins"].items():
            sketch._counts[int(raw_index)] = int(raw_count)
        return sketch

    # -- pickling (ndarray in __slots__ needs explicit state) --------------
    def __getstate__(self):
        return {
            "lo_s": self.lo_s, "hi_s": self.hi_s, "rel_err": self.rel_err,
            "count": self.count, "sum_s": self.sum_s,
            "min_s": self.min_s, "max_s": self.max_s,
            "counts": self._counts,
        }

    def __setstate__(self, state):
        self.__init__(state["lo_s"], state["hi_s"], state["rel_err"])
        self.count = state["count"]
        self.sum_s = state["sum_s"]
        self.min_s = state["min_s"]
        self.max_s = state["max_s"]
        self._counts = state["counts"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencySketch(count={self.count}, mean_s={self.mean_s:.6g},"
            f" bins={self.num_bins})"
        )
