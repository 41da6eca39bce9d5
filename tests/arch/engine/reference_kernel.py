"""Reference kernel: generator processes on the event engine.

``src`` runs every simulation as callbacks on
:class:`repro.arch.engine.kernel.Engine`.  The kernel was first written
around cooperative processes — plain Python generators that yield
:class:`Command` objects back to the engine — and the test oracles still
are: the generator lanes of :mod:`.reference_lanes`, the all-heap order
oracle of ``test_kernel_order.py`` and the process cases of
``test_kernel.py``.  :class:`ProcessEngine` is ``src``'s engine (the same
clock, heap, ready FIFO and ``run``) plus process stepping, and its
:meth:`~ProcessEngine.resource` gives :class:`ProcessResource` units that
take process waiters beside ``Resource.hold`` callbacks, at any capacity.

``Hold(dt)``
    Advance this process ``dt`` simulated seconds into the future.
``Acquire(resource)`` / ``Release(resource)``
    Claim / give back one unit of a contended :class:`ProcessResource`
    (FIFO-granted; blocked processes wait in the resource's queue).
``Join(process)``
    Suspend until another process finishes.
``WaitFor(gate)``
    Suspend until the gate is signalled (condition-variable style; the
    waiter must re-check its predicate after waking).
``Await(start)``
    Run a callback task: the kernel calls ``start(wake)`` at once and the
    process sleeps until the task calls ``wake()``.

Every resume — a spawn, a grant, a ``Release``, a ``Join``, a gate
signal, a task's ``wake`` — is one zero-delay event, and a ``Hold`` is
one event after its duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator

from repro.arch.engine.kernel import Engine, Resource

__all__ = [
    "Acquire",
    "Await",
    "Command",
    "Gate",
    "Hold",
    "Join",
    "Process",
    "ProcessEngine",
    "ProcessResource",
    "Release",
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

    resource: "ProcessResource"


@dataclass(frozen=True)
class Release(Command):
    """Give back one unit of ``resource``."""

    resource: "ProcessResource"


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

    def __init__(self, engine: "ProcessEngine", generator: Generator, name: str):
        self.engine = engine
        self.generator = generator
        # Generators receive the resume value; plain iterators of commands
        # are also accepted.
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

    def __init__(self, engine: "ProcessEngine"):
        self.engine = engine
        self._waiters: list[Process] = []

    def signal(self) -> None:
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.engine._resume(process)


class ProcessResource(Resource):
    """A resource with ``capacity`` units that processes acquire.

    Process waiters queue FIFO beside ``hold`` callbacks (which need
    capacity 1) and share one set of stats with them.
    """

    __slots__ = ("capacity",)

    def __init__(self, engine: "ProcessEngine", name: str, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"resource {name!r} needs capacity >= 1")
        super().__init__(engine, name)
        self.capacity = capacity

    def hold(self, duration: float, then: Callable[[float], None]) -> None:
        if self.capacity != 1:
            raise ValueError(
                f"hold needs a capacity-1 resource; {self.name!r} has "
                f"capacity {self.capacity}"
            )
        super().hold(duration, then)

    def _grant(self, process: Process) -> None:
        self._integrate()
        self.in_use += 1
        self.stats.acquisitions += 1
        self.engine._resume(process)

    def _grant_next(self) -> None:
        if not isinstance(self._queue[0][0], Process):
            super()._grant_next()   # a queued hold
            return
        process, enqueued_at = self._queue.popleft()
        self.stats.wait_s += self.engine.now - enqueued_at
        self._grant(process)

    def _acquire(self, process: Process) -> None:
        if self.in_use < self.capacity:
            self._grant(process)
        else:
            self._queue.append((process, self.engine.now))

    def release(self) -> None:
        """Give back one unit; the first waiter, if any, is granted now."""
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self._integrate()
        self.in_use -= 1
        if self._queue and self.in_use < self.capacity:
            self._grant_next()


# The command types `ProcessEngine._step` dispatches on, in `isinstance` order.
_COMMANDS = (Hold, Acquire, Release, Join, WaitFor, Await)


class ProcessEngine(Engine):
    """``src``'s engine plus generator processes, gates and capacity-k,
    process-capable resources."""

    def resource(self, name: str, capacity: int = 1) -> ProcessResource:
        if name in self.resources:
            raise ValueError(f"duplicate resource {name!r}")
        resource = self.resources[name] = ProcessResource(self, name, capacity)
        return resource

    def gate(self) -> Gate:
        return Gate(self)

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        process = Process(self, generator, name)
        self.schedule(0.0, lambda: self._step(process, None))
        return process

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
