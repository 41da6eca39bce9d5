"""Discrete-event kernel: event queue, shared clock, cooperative processes.

The engine owns a single simulated clock and an event queue.
Work is expressed as *processes* — plain Python generators that yield
:class:`Command` objects back to the kernel:

``Hold(dt)``
    Advance this process ``dt`` simulated seconds into the future.
``Acquire(resource)`` / ``Release(resource)``
    Claim / give back one unit of a contended :class:`Resource`
    (FIFO-granted; blocked processes wait in the resource's queue).
``Join(process)``
    Suspend until another process finishes.
``WaitFor(gate)``
    Suspend until the gate is signalled (condition-variable style; the
    waiter must re-check its predicate after waking).
``Await(start)``
    Run a callback task: the kernel calls ``start(wake)`` at once and the
    process sleeps until the task calls ``wake()``.

Callback tasks (``repro.arch.engine.lanes``) drive capacity-1 resources
without a process: :meth:`Resource.hold` occupies a free unit for a
duration at once — one call and one event, its end, scheduled through
:meth:`Engine.schedule` — or queues the hold in the same FIFO as process
waiters.  When a hold ends, the unit grants its next waiter (a queued
hold is scheduled, a queued process resumed) and then calls the task's
continuation with the hold's start.  :meth:`Resource.release` (what a
``Release`` command runs) grants the next waiter the same way.  Only
the hold ends and what a task schedules itself (an elided program's one
wake, at its absolute finish, through :meth:`Engine.schedule_at`) are
events.

Determinism: events fire in ``(time, sequence number)`` order, so a
simulation is a pure function of its inputs — the property the result
cache and the engine-vs-analytical regression tests rely on.

The queue is two structures that together keep exactly that order:

* a heap of ``(time, seq, fn)`` for events due strictly after ``now``;
* a FIFO ``deque`` of *ready* events due at ``now`` itself — every
  zero-delay resume (a grant, a ``Release``, a ``Join``, a ``spawn``) and
  any positive delay too small to move the clock (``now + delay == now``).

:meth:`Engine.run` fires heap entries due at ``now`` first, then the FIFO,
and advances the clock only once the FIFO is empty.  That is exactly
``(time, seq)`` order: a heap entry due at ``now`` was created before the
clock reached ``now``, so its sequence number is smaller than that of any
ready event (all created at ``now``), and the FIFO keeps ready events in
creation order.  Most events are ready events, so most skip the heap's
``O(log n)`` push/pop.

Nothing in the per-event path may tie a :class:`Process` into a reference
cycle (e.g. a wake-up closure cached on the process): a fleet keeps
thousands of processes live, and cyclic garbage at that scale triggers
costly full collections.  The per-event ``lambda`` a wake-up schedules is
acyclic.  One long-lived cycle remains by construction — ``Engine`` ↔
``Resource`` — and only a full collection frees it: a fleet of 1,000
chips leaves 5,000 resources in cycles per run.  :meth:`Engine.teardown`
breaks it (and drops pending events, waiters and running holds'
continuations) once a simulation's results have been read, so a finished
engine is freed by reference counting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator

from ... import obs

__all__ = [
    "Acquire",
    "Await",
    "Command",
    "Engine",
    "Gate",
    "Hold",
    "Join",
    "Process",
    "Release",
    "Resource",
    "ResourceStats",
    "WaitFor",
]


class Command:
    """Base class of every instruction a process may yield to the kernel."""


@dataclass(frozen=True)
class Hold(Command):
    """Occupy simulated time: resume the process after ``duration`` seconds."""

    duration: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so a plain `< 0` check would let it
        # through and silently corrupt the heap's time ordering.
        if not math.isfinite(self.duration):
            raise ValueError(f"cannot hold a non-finite duration {self.duration}")
        if self.duration < 0:
            raise ValueError(f"cannot hold a negative duration {self.duration}")


@dataclass(frozen=True)
class Acquire(Command):
    """Claim one unit of ``resource`` (blocks while fully occupied)."""

    resource: "Resource"


@dataclass(frozen=True)
class Release(Command):
    """Give back one unit of ``resource``."""

    resource: "Resource"


@dataclass(frozen=True)
class Join(Command):
    """Wait for another process to finish."""

    process: "Process"


@dataclass(frozen=True)
class WaitFor(Command):
    """Sleep until the gate is next signalled."""

    gate: "Gate"


@dataclass(frozen=True)
class Await(Command):
    """Run a callback task and sleep until it calls back.

    The kernel calls ``start(wake)`` at once; ``wake()`` resumes the
    process with one ready event (it may be called inside ``start``).
    """

    start: Callable[[Callable[[], None]], None]


class Process:
    """A running generator, scheduled by the engine."""

    def __init__(self, engine: "Engine", generator: Generator, name: str):
        self.engine = engine
        self.generator = generator
        # Generators receive the resume value; plain iterators of commands
        # are also accepted (handy in tests).
        self._send = getattr(generator, "send", None)
        self.name = name
        self.done = False
        self.started_at = engine.now
        self.finished_at: float | None = None
        self._joiners: list["Process"] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Gate:
    """Broadcast wake-up: every process waiting at signal time resumes."""

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._waiters: list[Process] = []

    def signal(self) -> None:
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.engine._resume(process)


@dataclass
class ResourceStats:
    """Occupancy accounting of one resource over a finished run."""

    busy_s: float = 0.0          # ∫ units-in-use dt
    wait_s: float = 0.0          # total time processes spent queued
    acquisitions: int = 0

    def utilization(self, horizon_s: float, capacity: int = 1) -> float:
        if horizon_s <= 0:
            return 0.0
        return self.busy_s / (horizon_s * capacity)


class Resource:
    """A contended unit of hardware (core, DRAM channel, scheduler slot).

    ``capacity`` units may be held simultaneously; further acquirers queue
    FIFO and are granted in order as units free up.  Processes acquire
    with ``Acquire``/``Release`` commands; callback tasks occupy a
    capacity-1 unit with :meth:`hold`.  Both kinds of waiter share one
    queue and one set of :class:`ResourceStats`.
    """

    __slots__ = (
        "engine", "name", "capacity", "in_use", "stats",
        "_queue", "_last_change", "_start", "_then",
    )

    def __init__(self, engine: "Engine", name: str, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"resource {name!r} needs capacity >= 1")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self.stats = ResourceStats()
        # Waiters in arrival order: a Process, or a hold's (duration, then).
        self._queue: deque[tuple[Process | tuple, float]] = deque()
        self._last_change = engine.now
        # The running hold's start and continuation (dropped at its end).
        self._start = 0.0
        self._then: Callable[[float], None] | None = None

    def _integrate(self) -> None:
        now = self.engine.now
        self.stats.busy_s += self.in_use * (now - self._last_change)
        self._last_change = now

    def _grant(self, process: Process) -> None:
        self._integrate()
        self.in_use += 1
        self.stats.acquisitions += 1
        self.engine._resume(process)

    def _grant_next(self) -> None:
        waiter, enqueued_at = self._queue.popleft()
        self.stats.wait_s += self.engine.now - enqueued_at
        if type(waiter) is tuple:
            self.hold(*waiter)   # the unit is free: held at once
        else:
            self._grant(waiter)

    def _acquire(self, process: Process) -> None:
        if self.in_use < self.capacity:
            self._grant(process)
        else:
            self._queue.append((process, self.engine.now))

    def hold(self, duration: float, then: Callable[[float], None]) -> None:
        """Occupy this capacity-1 unit for ``duration`` seconds — now if
        it is free, else FIFO beside process waiters — then release it,
        grant its next waiter and call ``then(start)`` with the grant
        time.  The end is one event, through :meth:`Engine.schedule`."""
        if self.capacity != 1:
            raise ValueError(
                f"hold needs a capacity-1 resource; {self.name!r} has "
                f"capacity {self.capacity}"
            )
        engine = self.engine
        if self.in_use:
            self._queue.append(((duration, then), engine.now))
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

    def release(self) -> None:
        """Give back one unit; the first waiter, if any, is granted now."""
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self._integrate()
        self.in_use -= 1
        if self._queue and self.in_use < self.capacity:
            self._grant_next()

    @property
    def queued(self) -> int:
        return len(self._queue)


# The command types `Engine._step` dispatches on, in `isinstance` order.
_COMMANDS = (Hold, Acquire, Release, Join, WaitFor, Await)


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
    def resource(self, name: str, capacity: int = 1) -> Resource:
        if name in self.resources:
            raise ValueError(f"duplicate resource {name!r}")
        resource = Resource(self, name, capacity)
        self.resources[name] = resource
        return resource

    def gate(self) -> Gate:
        return Gate(self)

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        process = Process(self, generator, name)
        self.schedule(0.0, lambda: self._step(process, None))
        return process

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

    # -- process stepping --------------------------------------------------
    def _resume(self, process: Process, value: object = None) -> None:
        self.schedule(0.0, lambda: self._step(process, value))

    def _step(self, process: Process, value: object) -> None:
        try:
            send = process._send
            command = send(value) if send is not None else next(process.generator)
        except StopIteration:
            process.done = True
            process.finished_at = self.now
            for joiner in process._joiners:
                self._resume(joiner, process)
            process._joiners.clear()
            return
        kind = type(command)
        if kind not in _COMMANDS:
            # A subclass dispatches as the command it extends.
            kind = next((base for base in _COMMANDS if isinstance(command, base)), None)
            if kind is None:
                raise TypeError(
                    f"process {process.name!r} yielded {command!r}; expected a Command"
                )
        if kind is Hold:
            self.schedule(command.duration, lambda: self._step(process, None))
        elif kind is Acquire:
            command.resource._acquire(process)
        elif kind is Release:
            command.resource.release()
            self._resume(process)
        elif kind is Join:
            if command.process.done:
                self._resume(process, command.process)
            else:
                command.process._joiners.append(process)
        elif kind is Await:
            command.start(partial(self._resume, process))
        else:
            command.gate._waiters.append(process)
