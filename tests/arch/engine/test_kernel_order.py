"""Ordering oracle: the ready-FIFO kernel fires the all-heap kernel's events.

:class:`HeapEngine` is the event loop the kernel had before zero-delay
events moved to a FIFO beside the heap: every event, ready or timed, goes
through one ``(time, seq)`` heap.  Both engines step processes as
:class:`~.reference_kernel.ProcessEngine` does, whose ``schedule`` and
``run`` are ``src``'s.  Hypothesis draws random process graphs
— zero and positive holds, capacity-1 and capacity-k resources, joins on
finished and running processes, gates, ``run(until=...)`` windows, and a
clock of ``2**53`` where a small positive hold does not move the clock —
and the per-step ``(now, process, command)`` log, every ``run`` return
value and the final ``ResourceStats`` must be ``==`` between the engines.
"""

import heapq
import math

import pytest

from .reference_kernel import Hold, Join, ProcessEngine, WaitFor
from .reference_lanes import use

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class HeapEngine(ProcessEngine):
    """Reference kernel: every event on the heap, ordered by ``(time, seq)``."""

    def schedule(self, delay, fn):
        if not math.isfinite(delay):
            raise ValueError(f"cannot schedule a non-finite delay {delay}")
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s into the past")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn))

    def run(self, until=None):
        while self._heap:
            time, _, fn = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            fn()
        if until is not None and until > self.now:
            self.now = until
        return self.now


# 1e-300 never moves the clock; at 2**53 neither do 0.25 and 1.0.
DURATIONS = st.sampled_from([0.0, 0.0, 1e-300, 0.25, 1.0, 2.5])
BASE_OPS = st.one_of(
    st.tuples(st.just("hold"), DURATIONS),
    st.tuples(
        st.just("use"), st.integers(0, 2), DURATIONS, st.integers(1, 3)
    ),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("wait")),
    st.tuples(st.just("signal")),
)
OPS = st.recursive(
    BASE_OPS,
    lambda children: st.tuples(
        st.just("spawn"), st.lists(children, max_size=4), DURATIONS
    ),
    max_leaves=12,
)
PROGRAMS = st.fixed_dictionaries({
    "start": st.sampled_from([0.0, 2.0**53]),
    "capacities": st.lists(st.integers(1, 3), min_size=1, max_size=3),
    # (window the process is spawned before, its body)
    "processes": st.lists(
        st.tuples(st.integers(0, 3), st.lists(OPS, max_size=6)),
        min_size=1, max_size=6,
    ),
    "windows": st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]), max_size=3
    ).map(sorted),
})


def simulate(engine_cls, program):
    """Run ``program`` on a fresh ``engine_cls``; everything observable."""
    engine = engine_cls()
    engine.now = program["start"]
    resources = [
        engine.resource(f"r{i}", capacity)
        for i, capacity in enumerate(program["capacities"])
    ]
    gate = engine.gate()
    spawned = []
    log = []

    def logged(name, body):
        value = None
        while True:
            try:
                command = body.send(value)
            except StopIteration:
                log.append((engine.now, name, "done"))
                return
            log.append((engine.now, name, type(command).__name__))
            value = yield command

    def body(name, ops):
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "hold":
                yield Hold(op[1])
            elif kind == "use":
                resource = resources[op[1] % len(resources)]
                yield from use(engine, resource, op[2], chunks=op[3])
            elif kind == "join":
                yield Join(spawned[op[1] % len(spawned)])
            elif kind == "wait":
                yield WaitFor(gate)
            elif kind == "signal":
                gate.signal()
            else:
                child_name = f"{name}.{index}"
                child = engine.spawn(
                    logged(child_name, body(child_name, op[1])), child_name
                )
                yield Hold(op[2])
                yield Join(child)

    returns = []
    windows = [program["start"] + w for w in program["windows"]] + [None]
    for window, until in enumerate(windows):
        for number, (spawn_window, ops) in enumerate(program["processes"]):
            if min(spawn_window, len(windows) - 1) == window:
                name = f"p{number}"
                spawned.append(engine.spawn(logged(name, body(name, ops)), name))
        returns.append(engine.run(until=until))
    stats = {resource.name: resource.stats for resource in resources}
    held = {resource.name: (resource.in_use, resource.queued) for resource in resources}
    return log, returns, stats, held


@settings(max_examples=150)
@given(PROGRAMS)
def test_ready_fifo_matches_heap_order(program):
    assert simulate(ProcessEngine, program) == simulate(HeapEngine, program)

