"""Vectorized fast path: replay compiled task graphs without the event heap.

The event replay (the callback lanes of ``lanes.py``) fires one timed
event per occupancy, which is exact but still costs an event-heap walk
per request — too much for every schedule-pass measurement and DSE
point.  For the *uncontended* single-request case the schedule is a pure
function of the per-layer task durations, so it can be evaluated in
closed form over numpy arrays:

* **serial** (the legacy ``run_trace`` semantics) — per layer, compute ∥
  DRAM with a barrier: ``Σ max(batch·compute, weights + batch·activation)``;
* **scheduled** (the compiler's depth-1 weight prefetch) — a linear
  recurrence over the DRAM channel's deterministic FIFO service order
  ``a₀, w₀, w₁, a₁, w₂, a₂, …`` (a layer's activation traffic enqueues
  before the *next* layer's weight prefetch; at ties the prefetcher wins
  the channel before the newly started layer's activation enqueues —
  exactly the event replay's ordering).

A :class:`FastSchedule` is built once per distinct timing tuple (they are
hashable value objects, so :func:`schedule_for` memoizes across requests,
chips, and compile passes) and then answers makespan queries in O(layers)
with no events.  It answers every uncontended makespan in ``src``; the
callback replays of :mod:`.lanes` stay its test oracle, pinned to it on
the zoo and ``==`` on integer-grid timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import ResourceStats
from .machine import BishopMachine, LayerTiming
from .timeline import EngineRun, TimelineEntry

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
    def serial_makespan(self, batch: int = 1) -> float:
        """Layer-serial makespan: ``Σ max(compute, dram)`` (vectorized)."""
        if not self.timings:
            return 0.0
        return float(
            np.maximum(
                batch * self.compute, self.weight + batch * self.activation
            ).sum()
        )

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

    # -- replay --------------------------------------------------------------
    def serial_run(
        self,
        batch: int = 1,
        label: str = "request",
        record_timeline: bool = True,
    ) -> EngineRun:
        """Synthesize the serial replay's :class:`EngineRun` without events.

        Entry labels and spans match those of
        :class:`~repro.arch.engine.lanes.SerialReplay`
        (``{label}/L{i}.{kind}:dense`` …): one entry per layer task, and
        zero-duration attention/spike tasks record a zero-width entry
        without counting an acquisition.  ``energy_pj`` is left at 0 for
        the caller to fill in (static energy needs the energy model).
        """
        n = len(self.timings)
        compute = batch * self.compute
        dram = self.weight + batch * self.activation
        spans = np.maximum(compute, dram)
        ends = np.cumsum(spans)
        starts = ends - spans
        makespan = float(ends[-1]) if n else 0.0

        timeline: list[TimelineEntry] = []
        if record_timeline:
            for i, t in enumerate(self.timings):
                s = float(starts[i])
                layer = f"{label}/L{i}.{t.kind}"
                if t.phase == "ATN":
                    pre = batch * t.attention_s
                    timeline.append(
                        TimelineEntry("attention_core", f"{layer}:attn", s, s + pre)
                    )
                else:
                    pre = batch * max(t.dense_s, t.sparse_s)
                    if t.dense_s > 0:
                        timeline.append(TimelineEntry(
                            "dense_core", f"{layer}:dense", s, s + batch * t.dense_s
                        ))
                    if t.sparse_s > 0:
                        timeline.append(TimelineEntry(
                            "sparse_core", f"{layer}:sparse", s, s + batch * t.sparse_s
                        ))
                timeline.append(TimelineEntry(
                    "spike_gen", f"{layer}:spike_gen",
                    s + pre, s + pre + batch * t.spike_gen_s,
                ))
                if dram[i] > 0:
                    timeline.append(TimelineEntry(
                        "dram", f"{layer}:dram", s, s + float(dram[i])
                    ))

        busy = {
            "dense_core": float((batch * self.dense).sum()),
            "sparse_core": float((batch * self.sparse).sum()),
            "attention_core": float((batch * self.attention).sum()),
            "spike_gen": float((batch * self.spike).sum()),
            "dram": float(dram.sum()),
        }
        acquisitions = {
            "dense_core": int(np.count_nonzero(self.dense > 0)),
            "sparse_core": int(np.count_nonzero(self.sparse > 0)),
            "attention_core": int(np.count_nonzero(self.attention > 0)),
            "spike_gen": int(np.count_nonzero(self.spike > 0)),
            "dram": int(np.count_nonzero(dram > 0)),
        }
        return EngineRun(
            makespan_s=makespan,
            energy_pj=0.0,
            timeline=timeline,
            resource_stats={
                name: ResourceStats(
                    busy_s=busy[name], acquisitions=acquisitions[name]
                )
                for name in BishopMachine.RESOURCE_NAMES
            },
            resource_capacity={
                name: 1 for name in BishopMachine.RESOURCE_NAMES
            },
        )


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
