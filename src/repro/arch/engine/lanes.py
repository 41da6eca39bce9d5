"""Callback lanes: replay a compiled program with one event per occupancy.

This is ``src``'s one event replay of a compiled program; the closed
form of :mod:`~repro.arch.engine.fastpath` is the other replay, for the
uncontended case.  Every serving lane runs a replay from here.  A
replay drives the :class:`~repro.arch.engine.machine.BishopMachine`
resources on the engine clock as a small callback state machine:

* :meth:`Resource.request <repro.arch.engine.kernel.Resource.request>`
  grants a free unit by calling back synchronously (or queues the
  callback FIFO beside process waiters), and ``release`` grants the next
  waiter, so acquire, release, grant, join and spawn cost no event;
* a positive-duration occupancy costs exactly one timed event, its hold,
  scheduled through :meth:`Engine.schedule
  <repro.arch.engine.kernel.Engine.schedule>`;
* zero-duration work touches no resource and records a zero-width
  timeline entry.

A lane process hands a replay's ``start`` to the kernel
(``yield Await(replay.start)``) and sleeps until the replay calls
``wake`` — one ready event per program or stage.  The replay's state is
explicit — layer index, pending branch counts, prefetch index — in plain
``__slots__`` attributes, and nothing refers back to the replay but the
heap entries and resource queues holding its bound methods, so a
finished (or abandoned) replay is freed by reference counting.

The test oracle is a set of generator lanes
(``tests/arch/engine/reference_lanes.py``) that spawn a process per
compute chain, core task and DRAM stream, at about twenty events per
stage.

Tie rule.  A layer requests its compute chain, then its DRAM stream,
then (prefetch programs) lets the prefetcher move on — the generator
lanes' spawn order — and the depth-1 prefetch keeps every DRAM tie rule
of :meth:`FastSchedule.scheduled_makespan
<repro.arch.engine.fastpath.FastSchedule.scheduled_makespan>`.  A lane
alone on its chip therefore replays the generator lanes exactly.  Where
two lanes want a free resource at the same instant, the kernel's ready
FIFO serves the generator lane with fewer hops since that instant's
timed events, while a callback chain runs depth-first inside the timed
event that released it — so the lane whose event fired first is served
first, and the two may break such a tie differently.
"""

from __future__ import annotations

from typing import Callable

from .kernel import Engine, Resource
from .machine import BishopMachine, LayerTiming
from .timeline import TimelineEntry

__all__ = ["ScheduledReplay", "SerialReplay"]


class _Replay:
    """Shared state and the per-layer compute chain of a replay.

    The compute chain is the Fig.-9 dataflow of the current layer: the
    attention core, or the dense ∥ sparse cores, then the spike
    generator.  When it ends, the subclass's ``_branch_done`` runs.
    """

    __slots__ = (
        "engine", "machine", "timings", "label", "batch", "timeline",
        "wake", "index", "timing", "pending", "cores",
        "_t_core", "_t_sparse", "_t_spike", "_t_dram",
    )

    def __init__(
        self,
        engine: Engine,
        machine: BishopMachine,
        timings: tuple[LayerTiming, ...],
        label: str = "request",
        batch: int = 1,
        timeline: list[TimelineEntry] | None = None,
    ):
        self.engine = engine
        self.machine = machine
        self.timings = timings
        self.label = label
        self.batch = batch
        self.timeline = timeline
        self.wake: Callable[[], None] | None = None
        self.index = 0           # the current layer
        self.timing: LayerTiming | None = None
        self.pending = 0         # the current layer's unfinished branches
        self.cores = 0           # unfinished dense/sparse core tasks

    # -- timeline ----------------------------------------------------------
    def _record(self, resource: Resource, tag: str, start: float, index: int) -> None:
        kind = self.timings[index].kind
        self.timeline.append(TimelineEntry(
            resource.name, f"{self.label}/L{index}.{kind}:{tag}",
            start, self.engine.now,
        ))

    def _zero(self, resource: Resource, tag: str) -> None:
        if self.timeline is not None:
            self._record(resource, tag, self.engine.now, self.index)

    def _finish(self) -> None:
        wake, self.wake = self.wake, None
        wake()

    # -- compute chain -----------------------------------------------------
    def _compute(self) -> bool:
        """Start the current layer's compute chain; ``False`` when it has
        no timed work (its zero-duration tasks only record entries)."""
        timing = self.timing
        machine = self.machine
        if timing.phase == "ATN":
            if timing.attention_s > 0:
                machine.attention_core.request(self._core_go)
                return True
            self._zero(machine.attention_core, "attn")
        elif timing.dense_s > 0 or timing.sparse_s > 0:
            self.cores = (timing.dense_s > 0) + (timing.sparse_s > 0)
            if timing.dense_s > 0:
                machine.dense_core.request(self._core_go)
            if timing.sparse_s > 0:
                machine.sparse_core.request(self._sparse_go)
            return True
        return self._spike()

    def _spike(self) -> bool:
        if self.timing.spike_gen_s > 0:
            self.machine.spike_gen.request(self._spike_go)
            return True
        self._zero(self.machine.spike_gen, "spike_gen")
        return False

    def _core_go(self) -> None:
        # The attention core on ATN layers, the dense core otherwise.
        timing = self.timing
        duration = timing.attention_s if timing.phase == "ATN" else timing.dense_s
        self._t_core = self.engine.now
        self.engine.schedule(duration * self.batch, self._core_end)

    def _core_end(self) -> None:
        if self.timing.phase == "ATN":
            resource = self.machine.attention_core
            if self.timeline is not None:
                self._record(resource, "attn", self._t_core, self.index)
            resource.release()
            if not self._spike():
                self._branch_done()
            return
        resource = self.machine.dense_core
        if self.timeline is not None:
            self._record(resource, "dense", self._t_core, self.index)
        resource.release()
        self._core_done()

    def _sparse_go(self) -> None:
        self._t_sparse = self.engine.now
        self.engine.schedule(self.timing.sparse_s * self.batch, self._sparse_end)

    def _sparse_end(self) -> None:
        resource = self.machine.sparse_core
        if self.timeline is not None:
            self._record(resource, "sparse", self._t_sparse, self.index)
        resource.release()
        self._core_done()

    def _core_done(self) -> None:
        self.cores -= 1
        if not self.cores and not self._spike():
            self._branch_done()

    def _spike_go(self) -> None:
        self._t_spike = self.engine.now
        self.engine.schedule(self.timing.spike_gen_s * self.batch, self._spike_end)

    def _spike_end(self) -> None:
        resource = self.machine.spike_gen
        if self.timeline is not None:
            self._record(resource, "spike_gen", self._t_spike, self.index)
        resource.release()
        self._branch_done()

    def _branch_done(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SerialReplay(_Replay):
    """Layers ``index .. stop-1``, each compute ∥ ``dram_s(batch)``, layers
    strictly serial: the whole program, or one continuous-mode stage
    (``stop = index + 1``)."""

    __slots__ = ("stop",)

    def __init__(
        self,
        engine: Engine,
        machine: BishopMachine,
        timings: tuple[LayerTiming, ...],
        label: str = "request",
        batch: int = 1,
        timeline: list[TimelineEntry] | None = None,
        index: int = 0,
        stop: int | None = None,
    ):
        super().__init__(engine, machine, timings, label, batch, timeline)
        self.index = index
        self.stop = len(timings) if stop is None else stop

    def start(self, wake: Callable[[], None]) -> None:
        self.wake = wake
        self._advance()

    def _advance(self) -> None:
        """Start layers until one has timed work, or finish the replay."""
        timings = self.timings
        while self.index < self.stop:
            timing = self.timing = timings[self.index]
            # Requests only schedule holds, so no branch can end before
            # `pending` is set below.
            pending = int(self._compute())
            if timing.dram_s(self.batch) > 0:
                pending += 1
                self.machine.dram.request(self._dram_go)
            if pending:
                self.pending = pending
                return
            self.index += 1
        self._finish()

    def _dram_go(self) -> None:
        self._t_dram = self.engine.now
        self.engine.schedule(self.timing.dram_s(self.batch), self._dram_end)

    def _dram_end(self) -> None:
        resource = self.machine.dram
        if self.timeline is not None:
            self._record(resource, "dram", self._t_dram, self.index)
        resource.release()
        self._branch_done()

    def _branch_done(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.index += 1
            self._advance()


class ScheduledReplay(_Replay):
    """The depth-1 weight-prefetch program.

    The prefetcher streams weight ``fetch`` once layer ``fetch - 1`` has
    started and the previous weight stream ended; layer ``index``
    completes when its compute chain and activation stream end and
    ``fetch > index`` (its weights are in).  At every tie the DRAM
    channel's FIFO sees ``a₀`` before ``w₀``, a started layer's
    activation before the weight that start released, and a finished
    weight's successor before the activation of the layer that was
    waiting on it.
    """

    __slots__ = ("fetch", "fetching", "_t_weight")

    def __init__(
        self,
        engine: Engine,
        machine: BishopMachine,
        timings: tuple[LayerTiming, ...],
        label: str = "request",
        batch: int = 1,
        timeline: list[TimelineEntry] | None = None,
    ):
        super().__init__(engine, machine, timings, label, batch, timeline)
        self.fetch = 0           # the weight stream the prefetcher is on
        self.fetching = False    # weight `fetch` is queued on or holds DRAM

    def start(self, wake: Callable[[], None]) -> None:
        self.wake = wake
        if not self.timings:
            self._finish()
            return
        self._begin()
        self._settle()

    def _begin(self) -> None:
        """Start layer ``index``: compute, activation, and the prefetcher
        (which this start may release onto the next weight)."""
        timing = self.timing = self.timings[self.index]
        pending = int(self._compute())
        if self.batch * timing.activation_dram_s > 0:
            pending += 1
            self.machine.dram.request(self._act_go)
        if not self.fetching:
            self._prefetch()
        self.pending = pending

    def _settle(self) -> None:
        """Complete every finished layer and start the next one."""
        while not self.pending and self.fetch > self.index:
            self.index += 1
            if self.index == len(self.timings):
                self._finish()
                return
            self._begin()

    def _prefetch(self) -> None:
        """Advance the idle prefetcher to its next nonzero weight stream,
        unless that stream waits for its predecessor layer to start."""
        timings = self.timings
        while self.fetch < len(timings):
            if self.fetch > self.index + 1:  # layer fetch-1 not started
                return
            if timings[self.fetch].weight_dram_s > 0:
                self.fetching = True
                self.machine.dram.request(self._weight_go)
                return
            self.fetch += 1

    def _act_go(self) -> None:
        self._t_dram = self.engine.now
        self.engine.schedule(self.batch * self.timing.activation_dram_s, self._act_end)

    def _act_end(self) -> None:
        resource = self.machine.dram
        if self.timeline is not None:
            self._record(resource, "dram.a", self._t_dram, self.index)
        resource.release()
        self._branch_done()

    def _weight_go(self) -> None:
        self._t_weight = self.engine.now
        self.engine.schedule(self.timings[self.fetch].weight_dram_s, self._weight_end)

    def _weight_end(self) -> None:
        resource = self.machine.dram
        if self.timeline is not None:
            self._record(resource, "dram.w", self._t_weight, self.fetch)
        resource.release()
        self.fetching = False
        self.fetch += 1
        # The prefetcher moves on before the layer that waited on this
        # weight completes and starts its successor.
        self._prefetch()
        self._settle()

    def _branch_done(self) -> None:
        self.pending -= 1
        self._settle()
