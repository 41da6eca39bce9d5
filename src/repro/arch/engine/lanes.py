"""Callback lanes: replay a compiled program with one event per occupancy.

This is ``src``'s one event replay of a compiled program; the compiled
:class:`~repro.compiler.ir.Program` answers the uncontended case in
closed form.  Every serving lane runs a replay from here.  A
replay drives the :class:`~repro.arch.engine.machine.BishopMachine`
resources on the engine clock as a small callback state machine:

* a positive-duration occupancy is one call, :meth:`Resource.hold
  <repro.arch.engine.kernel.Resource.hold>` (its duration fixed at the
  request: a layer's timing cannot change while it waits), and one timed
  event, its end, which grants the unit's next waiter and then calls the
  replay back, so acquire, release, grant, join and spawn cost no event;
* zero-duration work touches no resource and records a zero-width
  timeline entry.

A serving lane calls a replay's ``start(wake)`` with a ``wake`` that
schedules the lane's continuation as a zero-delay event — one ready
event per program or stage.  The replay's state is
explicit — layer index, pending branch counts, prefetch index — in plain
``__slots__`` attributes, and nothing refers back to the replay but the
heap entries, resource queues and running holds holding its bound
methods (and, while it is elided, its machine), so a finished (or
abandoned) replay is freed by reference counting.

Private-chip elision.  A replay that starts on an idle chip (no unit
held or queued, no elided replay in flight) with no timeline recorded
does not drive the resources at all: it walks its program in absolute
time from ``now``, with the event replay's float additions and ``max``es
in its order, and schedules one wake at the finish through
:meth:`Engine.schedule_at <repro.arch.engine.kernel.Engine.schedule_at>`.
The walk also adds every hold to the units' ``busy_s``, ``acquisitions``
and DRAM ``wait_s`` in release order, but the stats are written only at
the finish.  A replay that starts on that chip before then first
*materializes* the elided one: it re-runs the program's event replay
from its start on a private engine up to ``now`` (on the chip's own
units, so ended holds are credited and running holds, queued DRAM
requests and the replay's state are exactly the event replay's) and
moves the pending hold ends onto the engine.  The stale wake then does
nothing.  Every user of a chip's units must therefore go through a
replay's ``start``; a bare :meth:`Resource.hold
<repro.arch.engine.kernel.Resource.hold>` on them would not see an
elided program.

The test oracles are a set of generator lanes
(``tests/arch/engine/reference_lanes.py``, on the process kernel of
``reference_kernel.py``) that spawn a process per compute chain, core
task and DRAM stream, at about twenty events per stage, and the event replay itself with elision patched off
(``tests/serve/test_private_chip_elision.py``).

Tie rule.  A layer requests its compute chain, then its DRAM stream,
then (prefetch programs) lets the prefetcher move on — the generator
lanes' spawn order — and the depth-1 prefetch keeps every DRAM tie rule
of the schedule pass's closed form
(:func:`~repro.compiler.passes.prefetch_makespan`).  A lane
alone on its chip therefore replays the generator lanes exactly.  Where
two lanes want a free resource at the same instant, the kernel's ready
FIFO serves the generator lane with fewer hops since that instant's
timed events, while a callback chain runs depth-first inside the timed
event that released it — so the lane whose event fired first is served
first, and the two may break such a tie differently.

An elided program keeps the event replay's order on its own chip: a
replay starts only inside a ready event, after every timed event of its
instant, so a lane that starts exactly when an elided hold ends finds
that hold ended and its successor granted, as after the hold's end
event.  Its wake takes its sequence number when the program starts,
where the event replay's last hold takes one when it is granted: an
arrival whose hold was scheduled in between fires after the elided wake
at an exact tie, and before the last hold's end otherwise.  Both only
queue a ready event (the lane's resume; the dispatcher's wake-up), so
the chip serves every request alike; only the order in which two chips
finishing at the same instant report their completions can differ.
"""

from __future__ import annotations

import math
from typing import Callable

from .kernel import Engine, Resource
from .machine import BishopMachine, LayerTiming
from .timeline import TimelineEntry

__all__ = ["ScheduledReplay", "SerialReplay"]

# Positions of the units in ``BishopMachine.units``.
_DENSE, _SPARSE, _ATTENTION, _SPIKE, _DRAM = range(5)


class _Replay:
    """Shared state and the per-layer compute chain of a replay.

    The compute chain is the Fig.-9 dataflow of the current layer: the
    attention core, or the dense ∥ sparse cores, then the spike
    generator.  When it ends, the subclass's ``_branch_done`` runs.
    """

    __slots__ = (
        "engine", "machine", "timings", "label", "batch", "timeline",
        "wake", "index", "timing", "pending", "cores",
        "_t_start", "_busy", "_counts", "_wait",
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

    # -- start and elision -------------------------------------------------
    def start(self, wake: Callable[[], None]) -> None:
        """Begin the replay; ``wake()`` runs once it has finished."""
        self.wake = wake
        machine = self.machine
        if machine.elided is not None:
            machine.elided._materialize()
        elif self.timeline is None and not (
            # Idle: no unit held (a unit with waiters is always held).
            machine.dense_core.in_use or machine.sparse_core.in_use
            or machine.attention_core.in_use or machine.spike_gen.in_use
            or machine.dram.in_use
        ) and self._elide():
            return
        self._run()

    def _run(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _walk(self, t: float, busy: list, counts: list):  # pragma: no cover - abstract
        """Walk the program from ``t`` on an idle chip: returns its finish
        and its DRAM ``wait_s`` after it, and adds each hold to ``busy``
        and ``counts`` (per unit of ``machine.units``); ``None`` when a
        hold would not move the clock."""
        raise NotImplementedError

    def _elide(self) -> bool:
        """Run the program as one wake at its finish, if it can be walked.

        The walk adds every hold to the units' current ``busy_s`` in
        release order — the event replay's additions — but the stats are
        only written at the finish: nothing else touches an elided chip's
        units before then (a replay that starts on it materializes this
        one first).
        """
        engine, units = self.engine, self.machine.units
        now = engine.now
        busy = [unit.stats.busy_s for unit in units]
        counts = [0] * len(units)
        walk = self._walk(now, busy, counts)
        if walk is None or not now < walk[0] < math.inf:
            return False  # no timed work, or a hold the kernel would refuse
        finish, self._wait = walk
        self._busy, self._counts, self._t_start = busy, counts, now
        self.machine.elided = self
        engine.elided += 1
        engine.schedule_at(finish, self._elided_end)
        return True

    def _elided_end(self) -> None:
        machine = self.machine
        if machine.elided is not self:
            return  # materialized: the event replay finishes the program
        machine.elided = None
        for unit, busy, count in zip(machine.units, self._busy, self._counts):
            if count:
                stats = unit.stats
                stats.busy_s = busy
                stats.acquisitions += count
        machine.dram.stats.wait_s = self._wait
        self._busy = self._counts = None
        self._finish()

    def _materialize(self) -> None:
        """Turn this elided replay into the event replay it stands for.

        Replays the program from its start on a private engine up to the
        main engine's ``now`` (every event at or before ``now`` fires), on
        the chip's own resources — ended holds are credited, running
        holds and queued DRAM requests stay on the resources — then
        re-arms the pending hold ends on the main engine, in their order.
        """
        engine, machine = self.engine, self.machine
        machine.elided = None
        engine.materialized += 1
        self._busy = self._counts = None
        private = Engine()
        private.now = self._t_start
        units = machine.units
        for unit in units:
            unit.engine = private
        self.engine = private
        try:
            self._run()
            private.run(until=engine.now)
        finally:
            for unit in units:
                unit.engine = engine
            self.engine = engine
        engine.adopt(private)

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
        timing, machine, batch = self.timing, self.machine, self.batch
        if timing.phase == "ATN":
            if timing.attention_s > 0:
                machine.attention_core.hold(timing.attention_s * batch, self._attention_end)
                return True
            self._zero(machine.attention_core, "attn")
        elif timing.dense_s > 0 or timing.sparse_s > 0:
            self.cores = (timing.dense_s > 0) + (timing.sparse_s > 0)
            if timing.dense_s > 0:
                machine.dense_core.hold(timing.dense_s * batch, self._dense_end)
            if timing.sparse_s > 0:
                machine.sparse_core.hold(timing.sparse_s * batch, self._sparse_end)
            return True
        return self._spike()

    def _spike(self) -> bool:
        if self.timing.spike_gen_s > 0:
            self.machine.spike_gen.hold(self.timing.spike_gen_s * self.batch, self._spike_end)
            return True
        self._zero(self.machine.spike_gen, "spike_gen")
        return False

    def _attention_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.attention_core, "attn", start, self.index)
        if not self._spike():
            self._branch_done()

    def _dense_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.dense_core, "dense", start, self.index)
        self._core_done()

    def _sparse_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.sparse_core, "sparse", start, self.index)
        self._core_done()

    def _core_done(self) -> None:
        self.cores -= 1
        if not self.cores and not self._spike():
            self._branch_done()

    def _spike_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.spike_gen, "spike_gen", start, self.index)
        self._branch_done()

    def _branch_done(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _walk_chain(self, timing: LayerTiming, t: float, busy: list, counts: list):
        """End of ``timing``'s compute chain started at ``t`` (its holds
        added to ``busy``/``counts``), or ``None`` when a hold would not
        move the clock."""
        batch = self.batch
        if timing.phase == "ATN":
            if timing.attention_s > 0:
                end = t + timing.attention_s * batch
                if not end > t:
                    return None
                busy[_ATTENTION] += end - t
                counts[_ATTENTION] += 1
                t = end
        elif timing.dense_s > 0 or timing.sparse_s > 0:
            end = t
            if timing.dense_s > 0:
                end = t + timing.dense_s * batch
                if not end > t:
                    return None
                busy[_DENSE] += end - t
                counts[_DENSE] += 1
            if timing.sparse_s > 0:
                sparse = t + timing.sparse_s * batch
                if not sparse > t:
                    return None
                busy[_SPARSE] += sparse - t
                counts[_SPARSE] += 1
                if sparse > end:
                    end = sparse
            t = end
        if timing.spike_gen_s > 0:
            end = t + timing.spike_gen_s * batch
            if not end > t:
                return None
            busy[_SPIKE] += end - t
            counts[_SPIKE] += 1
            t = end
        return t


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

    def _walk(self, t: float, busy: list, counts: list):
        timings, batch = self.timings, self.batch
        for index in range(self.index, self.stop):
            timing = timings[index]
            end = self._walk_chain(timing, t, busy, counts)
            if end is None:
                return None
            duration = timing.dram_s(batch)
            if duration > 0:
                dram_end = t + duration
                if not dram_end > t:
                    return None
                busy[_DRAM] += dram_end - t
                counts[_DRAM] += 1
                if dram_end > end:
                    end = dram_end
            t = end
        return t, self.machine.dram.stats.wait_s

    def _advance(self) -> None:
        """Start layers until one has timed work, or finish the replay."""
        timings = self.timings
        while self.index < self.stop:
            timing = self.timing = timings[self.index]
            # A hold only schedules its end, so no branch can end before
            # `pending` is set below.
            pending = int(self._compute())
            duration = timing.dram_s(self.batch)
            if duration > 0:
                pending += 1
                self.machine.dram.hold(duration, self._dram_end)
            if pending:
                self.pending = pending
                return
            self.index += 1
        self._finish()

    _run = _advance

    def _dram_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.dram, "dram", start, self.index)
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

    __slots__ = ("fetch", "fetching")

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

    def _run(self) -> None:
        if not self.timings:
            self._finish()
            return
        self._begin()
        self._settle()

    def _walk(self, t: float, busy: list, counts: list):
        # The DRAM channel serves a₀, w₀, w₁, a₁, w₂, a₂, … FIFO (zero
        # streams skipped): layer i's start requests aᵢ, then releases
        # the prefetcher onto wᵢ₊₁ once wᵢ has ended.  Each grant is at
        # max(channel free, request).
        timings, batch = self.timings, self.batch
        count = len(timings)
        wait = self.machine.dram.stats.wait_s
        weight_end = [None] * count
        channel = prefetcher = t   # DRAM free from; last weight's end
        for index in range(count):
            timing = timings[index]
            end = self._walk_chain(timing, t, busy, counts)
            if end is None:
                return None
            duration = batch * timing.activation_dram_s
            if duration > 0:
                grant = channel if channel > t else t
                channel = grant + duration
                if not channel > grant:
                    return None
                if grant > t:
                    wait += grant - t
                busy[_DRAM] += channel - grant
                counts[_DRAM] += 1
                if channel > end:
                    end = channel
            for fetch in (0, 1) if index == 0 else (index + 1,):
                if fetch < count and timings[fetch].weight_dram_s > 0:
                    request = prefetcher if prefetcher > t else t
                    grant = channel if channel > request else request
                    channel = grant + timings[fetch].weight_dram_s
                    if not channel > grant:
                        return None
                    if grant > request:
                        wait += grant - request
                    busy[_DRAM] += channel - grant
                    counts[_DRAM] += 1
                    prefetcher = weight_end[fetch] = channel
            weight = weight_end[index]
            if weight is not None and weight > end:
                end = weight
            t = end
        return t, wait

    def _begin(self) -> None:
        """Start layer ``index``: compute, activation, and the prefetcher
        (which this start may release onto the next weight)."""
        timing = self.timing = self.timings[self.index]
        pending = int(self._compute())
        duration = self.batch * timing.activation_dram_s
        if duration > 0:
            pending += 1
            self.machine.dram.hold(duration, self._act_end)
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
            duration = timings[self.fetch].weight_dram_s
            if duration > 0:
                self.fetching = True
                self.machine.dram.hold(duration, self._weight_end)
                return
            self.fetch += 1

    def _act_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.dram, "dram.a", start, self.index)
        self._branch_done()

    def _weight_end(self, start: float) -> None:
        if self.timeline is not None:
            self._record(self.machine.dram, "dram.w", start, self.fetch)
        self.fetching = False
        self.fetch += 1
        # The prefetcher moves on before the layer that waited on this
        # weight completes and starts its successor.
        self._prefetch()
        self._settle()

    def _branch_done(self) -> None:
        self.pending -= 1
        self._settle()
