"""Engine emission: the makespan of a compiled program on the chip.

The compiler's contract with the runtime: a :class:`~repro.compiler.ir.Program`
(or its :class:`~repro.arch.engine.machine.LayerTiming` tuple) replays in
one of two shapes —

* **serial** — per layer, compute ∥ streaming with a barrier (the legacy
  ``run_trace`` semantics; for one request the makespan is
  ``Σ max(compute, dram)``);
* **scheduled** — the scheduling pass's depth-1 weight prefetch,
  makespan ≤ serial.

Fast mode answers both in closed form
(:class:`~repro.arch.engine.fastpath.FastSchedule`); kernel mode replays
them as :class:`~repro.arch.engine.lanes.SerialReplay` /
:class:`~repro.arch.engine.lanes.ScheduledReplay` on a fresh engine, the
same callback replays the serving lanes run.
"""

from __future__ import annotations

from .. import obs
from ..arch.engine.fastpath import engine_mode, schedule_for
from ..arch.engine.kernel import Engine
from ..arch.engine.lanes import ScheduledReplay, SerialReplay
from ..arch.engine.machine import BishopMachine, LayerTiming
from .ir import Program

__all__ = ["measure_program", "measure_timings", "measure_timings_kernel"]


def measure_timings(
    timings: tuple[LayerTiming, ...],
    scheduled: bool = False,
    batch: int = 1,
) -> float:
    """Uncontended single-request makespan of a task graph.

    In fast mode (the ``REPRO_ENGINE`` default) this is answered in
    closed form by the memoized :class:`~repro.arch.engine.fastpath.
    FastSchedule` — the schedule-pass and DSE hot path; kernel mode
    replays the task graph on a fresh event engine
    (:func:`measure_timings_kernel`).
    """
    timings = tuple(timings)
    mode = engine_mode()
    obs.inc(f"engine.dispatch.{mode}")
    if mode == "fast":
        schedule = schedule_for(timings)
        if scheduled:
            return schedule.scheduled_makespan(batch)
        return schedule.serial_makespan(batch)
    return measure_timings_kernel(timings, scheduled, batch)


def measure_timings_kernel(
    timings: tuple[LayerTiming, ...],
    scheduled: bool = False,
    batch: int = 1,
) -> float:
    """Event replay of one request (fresh engine, callback replay)."""
    engine = Engine()
    replay = ScheduledReplay if scheduled else SerialReplay
    replay(
        engine, BishopMachine(engine), tuple(timings), "measure", batch
    ).start(lambda: None)
    return engine.run()


def measure_program(program: Program, batch: int = 1) -> float:
    """Uncontended makespan of a program under its compiled schedule."""
    return measure_timings(program.timings(), program.scheduled, batch)
