"""Discrete-event kernel: event queue, shared clock, contended resources.

The engine owns a single simulated clock and an event queue.  Work is
expressed as *callbacks*: :meth:`Engine.schedule` runs a function a
delay from now, :meth:`Engine.schedule_at` at an absolute time.  A
task that waits — a serving lane for its replay, a chip's dispatcher
for work, an arrival feed for the next arrival — schedules the callback
it continues in.

A :class:`Resource` is one contended capacity-1 unit (a core, the DRAM
channel).  :meth:`Resource.hold` occupies it for a duration — at once if
it is free, else FIFO behind the holds already waiting — with one call
and one event, its end, scheduled through :meth:`Engine.schedule`.  When
a hold ends, the unit grants its next waiter (whose end is scheduled at
once) and then calls the task's continuation with the hold's start.
Only hold ends, what tasks schedule themselves and an elided program's
one wake (``lanes.py``, at its absolute finish) are events.

Determinism: events fire in ``(time, sequence number)`` order, so a
simulation is a pure function of its inputs — the property the result
cache and the engine-vs-analytical regression tests rely on.

The queue is two structures that together keep exactly that order:

* a heap of ``(time, seq, fn)`` for events due strictly after ``now``;
* a FIFO ``deque`` of *ready* events due at ``now`` itself — every
  zero-delay callback and any positive delay too small to move the
  clock (``now + delay == now``).

:meth:`Engine.run` fires heap entries due at ``now`` first, then the FIFO,
and advances the clock only once the FIFO is empty.  That is exactly
``(time, seq)`` order: a heap entry due at ``now`` was created before the
clock reached ``now``, so its sequence number is smaller than that of any
ready event (all created at ``now``), and the FIFO keeps ready events in
creation order.  Most events are ready events, so most skip the heap's
``O(log n)`` push/pop.

Nothing in the per-event path may build a reference cycle (e.g. a
callback cached on the object it calls back): a fleet keeps thousands of
chips live, and cyclic garbage at that scale triggers costly full
collections.  A scheduled callback is a fresh bound method or
``functools.partial`` and is acyclic.  One long-lived cycle remains by
construction — ``Engine`` ↔ ``Resource`` — and only a full collection
frees it: a fleet of 1,000 chips leaves 5,000 resources in cycles per
run.  :meth:`Engine.teardown` breaks it (and drops pending events,
waiters and running holds' continuations) once a simulation's results
have been read, so a finished engine is freed by reference counting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ... import obs

__all__ = ["Engine", "Resource", "ResourceStats"]


@dataclass
class ResourceStats:
    """Occupancy accounting of one resource over a finished run."""

    busy_s: float = 0.0          # ∫ in-use dt
    wait_s: float = 0.0          # total time holds spent queued
    acquisitions: int = 0

    def utilization(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 0.0
        return self.busy_s / horizon_s


class Resource:
    """A contended capacity-1 unit of hardware (core, DRAM channel).

    Tasks occupy it with :meth:`hold`; a hold that finds it held waits
    FIFO and is granted when the holds before it end.
    """

    __slots__ = (
        "engine", "name", "in_use", "stats",
        "_queue", "_last_change", "_start", "_then",
    )

    def __init__(self, engine: "Engine", name: str):
        self.engine = engine
        self.name = name
        self.in_use = 0
        self.stats = ResourceStats()
        # Waiting holds in arrival order: (duration, then, enqueued at).
        self._queue: deque[tuple] = deque()
        self._last_change = engine.now
        # The running hold's start and continuation (dropped at its end).
        self._start = 0.0
        self._then: Callable[[float], None] | None = None

    def _integrate(self) -> None:
        now = self.engine.now
        self.stats.busy_s += self.in_use * (now - self._last_change)
        self._last_change = now

    def _grant_next(self) -> None:
        duration, then, enqueued_at = self._queue.popleft()
        self.stats.wait_s += self.engine.now - enqueued_at
        self.hold(duration, then)   # the unit is free: held at once

    def hold(self, duration: float, then: Callable[[float], None]) -> None:
        """Occupy this unit for ``duration`` seconds — now if it is free,
        else FIFO behind the waiting holds — then release it, grant its
        next waiter and call ``then(start)`` with the grant time.  The end
        is one event, through :meth:`Engine.schedule`."""
        engine = self.engine
        if self.in_use:
            self._queue.append((duration, then, engine.now))
            return
        self.in_use = 1
        self._last_change = self._start = engine.now
        self.stats.acquisitions += 1
        self._then = then
        engine.schedule(duration, self._end)

    def _end(self) -> None:
        self.stats.busy_s += self.engine.now - self._last_change
        self.in_use = 0
        then, self._then = self._then, None
        start = self._start
        if self._queue:
            self._grant_next()
        then(start)

    @property
    def queued(self) -> int:
        return len(self._queue)


class Engine:
    """The discrete-event simulator: one clock, a timed heap, a ready FIFO."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._ready: deque[Callable[[], None]] = deque()
        self._seq = itertools.count()
        self.resources: dict[str, Resource] = {}
        # Programs replayed without events (``lanes.py``): how many were
        # elided, and how many of those were materialized into events
        # again; added to telemetry once per ``run``.
        self.elided = 0
        self.materialized = 0

    # -- construction ------------------------------------------------------
    def resource(self, name: str) -> Resource:
        if name in self.resources:
            raise ValueError(f"duplicate resource {name!r}")
        resource = self.resources[name] = Resource(self, name)
        return resource

    # -- event queue -------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay == 0.0:
            self._ready.append(fn)
            return
        if not math.isfinite(delay):
            raise ValueError(f"cannot schedule a non-finite delay {delay}")
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s into the past")
        now = self.now
        time = now + delay
        if time == now:  # too small to move the clock: due now
            self._ready.append(fn)
        else:
            heapq.heappush(self._heap, (time, next(self._seq), fn))

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at the absolute ``time`` (not before ``now``).

        An event due at ``now`` joins the ready FIFO, like a zero delay.
        """
        now = self.now
        if time == now:
            self._ready.append(fn)
            return
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule at a non-finite time {time}")
        if time < now:
            raise ValueError(f"cannot schedule at {time}, before now ({now})")
        heapq.heappush(self._heap, (time, next(self._seq), fn))

    def adopt(self, other: "Engine") -> None:
        """Move ``other``'s pending timed events onto this engine's heap,
        keeping their order; every one must be due after ``now``."""
        events = sorted(other._heap)
        if events and not events[0][0] > self.now:
            raise ValueError(f"cannot adopt an event due at {events[0][0]}")
        for time, _, fn in events:
            heapq.heappush(self._heap, (time, next(self._seq), fn))
        other._heap.clear()

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; returns the final simulated time.

        With ``until`` the clock lands exactly on ``until`` whether events
        remain or the queue drains first, and never moves backwards: an
        ``until`` earlier than ``now`` fires nothing and returns ``now`` —
        the invariant incremental window-stepped draining relies on.
        """
        if until is not None and not math.isfinite(until):
            # NaN fails every comparison: the window check below would
            # never stop the drain, and the clock would never land.
            raise ValueError(f"cannot run until a non-finite time {until}")
        if until is not None and until < self.now:
            return self.now
        heap, ready = self._heap, self._ready
        heappop, popleft = heapq.heappop, ready.popleft
        timed = fired_ready = 0
        with obs.span("engine.run", cat="engine"):
            now = self.now
            while True:
                # Heap entries due now precede every ready event (smaller
                # seq); the clock advances only once the FIFO is empty.
                if heap and heap[0][0] == now:
                    fn = heappop(heap)[2]
                    timed += 1
                elif ready:
                    fn = popleft()
                    fired_ready += 1
                elif heap:
                    if until is not None and heap[0][0] > until:
                        break
                    now, _, fn = heappop(heap)
                    self.now = now
                    timed += 1
                else:
                    break
                fn()
            if until is not None and until > now:
                self.now = until
        obs.inc("engine.events.timed", timed)
        obs.inc("engine.events.ready", fired_ready)
        if self.elided:
            obs.inc("serve.programs.elided", self.elided)
            self.elided = 0
        if self.materialized:
            obs.inc("serve.programs.materialized", self.materialized)
            self.materialized = 0
        return self.now

    def teardown(self) -> None:
        """Break this finished engine's reference cycles.

        Drops pending events and every resource's waiters, and forgets
        the resources (whose stats stay readable through any other
        reference, e.g. a ``BishopMachine``).  Call it once a
        simulation's results have been read: the engine cannot run
        again, and reference counting frees what it held.
        """
        self._heap.clear()
        self._ready.clear()
        for resource in self.resources.values():
            resource._queue.clear()
            resource._then = None
        self.resources = {}
