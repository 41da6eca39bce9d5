"""Vectorized fast path: replay compiled task graphs without the event heap.

The event replay (the callback lanes of ``lanes.py``) fires one timed
event per occupancy, which is exact but still costs an event-heap walk
per request — too much for every schedule-pass measurement and DSE
point.  For the *uncontended* single-request case the schedule is a pure
function of the per-layer task durations, so the compiler's depth-1
weight prefetch can be evaluated in closed form: a linear recurrence over
the DRAM channel's deterministic FIFO service order
``a₀, w₀, w₁, a₁, w₂, a₂, …`` (a layer's activation traffic enqueues
before the *next* layer's weight prefetch; at ties the prefetcher wins
the channel before the newly started layer's activation enqueues —
exactly the event replay's ordering).  The layer-serial makespan
``Σ max(compute, dram)`` needs no recurrence: it is the compiled
program's ``serial_latency_s``.

A :class:`FastSchedule` is built once per distinct timing tuple (they are
hashable value objects, so :func:`schedule_for` memoizes across requests,
chips, and compile passes) and then answers makespan queries in O(layers)
with no events.  It answers every uncontended scheduled makespan in
``src``; the callback replays of :mod:`.lanes` stay its test oracle, pinned to it on
the zoo and ``==`` on integer-grid timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .machine import LayerTiming

__all__ = ["FastSchedule", "schedule_for"]


@dataclass(frozen=True, eq=False)
class FastSchedule:
    """One task graph's per-layer durations as columnar numpy arrays.

    Batch scaling happens at query time — compute and activation traffic
    scale with the batch, weights stream once — so one schedule serves
    every batch size of the same compiled program.
    """

    timings: tuple[LayerTiming, ...]
    dense: np.ndarray
    sparse: np.ndarray
    attention: np.ndarray
    spike: np.ndarray
    weight: np.ndarray          # DRAM seconds, streamed once per batch
    activation: np.ndarray      # DRAM seconds, streamed per request
    compute: np.ndarray         # max(dense, sparse) + attention + spike
    dynamic_pj: float
    weight_dram_pj: float

    @classmethod
    def from_timings(cls, timings: tuple[LayerTiming, ...]) -> "FastSchedule":
        timings = tuple(timings)

        def column(attr: str) -> np.ndarray:
            return np.array(
                [getattr(t, attr) for t in timings], dtype=np.float64
            )

        dense = column("dense_s")
        sparse = column("sparse_s")
        attention = column("attention_s")
        spike = column("spike_gen_s")
        return cls(
            timings=timings,
            dense=dense,
            sparse=sparse,
            attention=attention,
            spike=spike,
            weight=column("weight_dram_s"),
            activation=column("activation_dram_s"),
            compute=np.maximum(dense, sparse) + attention + spike,
            dynamic_pj=float(column("dynamic_pj").sum()),
            weight_dram_pj=float(column("weight_dram_pj").sum()),
        )

    def __len__(self) -> int:
        return len(self.timings)

    # -- energy ------------------------------------------------------------
    def batch_dynamic_pj(self, batch: int = 1) -> float:
        """Dynamic energy of one batched request (weights stream once)."""
        return (self.dynamic_pj - self.weight_dram_pj) * batch + self.weight_dram_pj

    @property
    def sparse_core_share(self) -> float:
        """Fraction of core-seconds spent on the sparse core."""
        total = float((self.dense + self.sparse + self.attention + self.spike).sum())
        return float(self.sparse.sum()) / total if total > 0 else 0.0

    # -- makespans -----------------------------------------------------------
    def scheduled_makespan(self, batch: int = 1) -> float:
        """Depth-1 weight-prefetch makespan (the scheduling pass's emission).

        Mirrors :class:`~repro.arch.engine.lanes.ScheduledReplay` event
        for event: the single DRAM channel serves, FIFO,
        ``a₀, w₀, w₁, a₁, w₂, a₂, …`` where layer ``i``'s weights may
        stream once layer ``i-1`` has started and the previous weight
        stream finished, and a layer completes when its compute, its
        activation stream, and its own weight stream are all done.
        """
        compute = (batch * self.compute).tolist()
        weight = self.weight.tolist()
        activation = (batch * self.activation).tolist()
        finish = 0.0        # completion time of the previous layer
        prev_start = 0.0    # when the previous layer started (prefetch gate)
        channel = 0.0       # DRAM channel free time (last FIFO service end)
        weights_done = 0.0  # when the previous layer's weight stream ended
        for index, (c, w, a) in enumerate(zip(compute, weight, activation)):
            start = finish
            if index == 0:
                # Layer 0: its activation enqueues before the prefetcher
                # even exists, so it wins the channel over w0.
                a_end = 0.0
                if a > 0:
                    channel += a
                    a_end = channel
                if w > 0:
                    channel += w
                    weights_done = channel
            else:
                # w_i is requested at max(prev weights done, prev layer
                # start) — never later than this layer's start, and at ties
                # the prefetcher's acquire lands before the new layer's
                # activation enqueues, so w_i is served first.
                if w > 0:
                    channel = max(channel, weights_done, prev_start) + w
                    new_done = channel
                else:
                    new_done = max(weights_done, prev_start)
                if a > 0:
                    channel = max(channel, start) + a
                    a_end = channel
                else:
                    a_end = start
                weights_done = new_done
            finish = max(start + c, a_end, weights_done)
            prev_start = start
        return finish


@lru_cache(maxsize=1024)
def _schedule_for(timings: tuple[LayerTiming, ...]) -> FastSchedule:
    return FastSchedule.from_timings(timings)


def schedule_for(timings: tuple[LayerTiming, ...]) -> FastSchedule:
    """The memoized :class:`FastSchedule` of a timing tuple.

    :class:`LayerTiming` is a frozen value dataclass, so equal task graphs
    — every request of the same compiled program, every schedule-pass
    measurement of the same chip — share one precomputed schedule.
    """
    return _schedule_for(tuple(timings))
