"""Reference replays: the oracles for the closed form and the callback lanes.

These are the engine processes the chip replay was first written as,
on the process kernel of :mod:`.reference_kernel`.  Per layer they
spawn a process per compute chain, core task and DRAM stream, and every
acquire, hold, release, join and spawn is an event of its own.  :mod:`repro.arch.engine.lanes` replays the same task graphs
with one event per occupancy; the tests here pin the two against each
other:

* :func:`inference_process` — per layer, compute ∥ ``dram_s(batch)``,
  layers strictly serial (twin of ``SerialReplay`` over the program);
* :func:`stage_process` — one such layer in isolation (twin of
  ``SerialReplay`` over ``index .. index + 1``, a continuous-mode stage);
* :func:`scheduled_inference_process` — the depth-1 weight-prefetch
  program (twin of ``ScheduledReplay``).

A core task holds its unit in ``min(tiles, max_quanta)`` equal quanta,
releasing it between quanta so a competitor can slot in at tile
boundaries.  ``max_quanta`` defaults to 1, one occupancy per task as in
the callback lanes, where the two must agree ``==``; at
:data:`MAX_QUANTA` the lanes interleave tile by tile, and the callback
replays agree with them within 1e-9.

:class:`SerialLanes` and :class:`ScheduledLanes` put these processes
behind the callback replays' ``start(wake)`` interface, so a test can
swap them into ``repro.serve.simulate`` in place of the replays (with
:class:`~.reference_kernel.ProcessEngine` in place of its engine).

:func:`replay_makespan` and :func:`replay_inference` run the callback
replays of :mod:`repro.arch.engine.lanes` alone on a fresh engine: the
event-replay twins of the closed forms that ``src`` answers every
uncontended request with (``Program.serial_latency_s`` and the schedule
pass's ``prefetch_makespan``).
"""

from __future__ import annotations

from typing import Callable

from repro.arch.energy import EnergyModel
from repro.arch.engine.kernel import Engine
from repro.arch.engine.lanes import ScheduledReplay, SerialReplay
from repro.arch.engine.machine import BishopMachine, LayerTiming
from repro.arch.engine.timeline import EngineRun, TimelineEntry
from repro.arch.report import InferenceReport

from .reference_kernel import (
    Acquire, Hold, Join, ProcessEngine, ProcessResource, Release, WaitFor,
)

__all__ = [
    "MAX_QUANTA",
    "ScheduledLanes",
    "SerialLanes",
    "inference_process",
    "reference_makespan",
    "replay_inference",
    "replay_makespan",
    "scheduled_inference_process",
    "serial_closed_form",
    "stage_process",
    "use",
]

# Tile-granular cap on acquire/release quanta per core task: event counts
# stay linear in layers, not tiles.
MAX_QUANTA = 8


def use(
    engine: ProcessEngine,
    resource: ProcessResource,
    duration_s: float,
    timeline: list[TimelineEntry] | None = None,
    label: str = "",
    chunks: int = 1,
):
    """Occupy ``resource`` for ``duration_s``, in ``chunks`` equal quanta.

    With ``chunks > 1`` the resource is released between quanta, so a
    queued competitor can slot in at tile boundaries.  Zero-duration work
    never touches the resource but still records a zero-width entry, so
    zero-cost layers stay visible in timelines.
    """
    if duration_s <= 0.0:
        if timeline is not None:
            timeline.append(
                TimelineEntry(resource.name, label, engine.now, engine.now)
            )
        return
    chunks = max(1, int(chunks))
    quantum = duration_s / chunks
    acquire, release = Acquire(resource), Release(resource)
    for _ in range(chunks):
        yield acquire
        start = engine.now
        yield Hold(quantum)
        if timeline is not None:
            timeline.append(
                TimelineEntry(resource.name, label, start, engine.now)
            )
        yield release


def _quanta(tiles: int, max_quanta: int = 1) -> int:
    """Acquire/release quanta of a ``tiles``-tile core task."""
    return max(1, min(int(tiles), max_quanta))


def _compute_chain(
    engine: ProcessEngine,
    machine: BishopMachine,
    timing: LayerTiming,
    label: str,
    batch: int,
    timeline: list[TimelineEntry] | None,
    max_quanta: int,
):
    """Core occupancy of one layer: dense ∥ sparse (or attention), then the
    spike generator merges/fires — the Fig.-9 dataflow as engine tasks."""
    if timing.phase == "ATN":
        yield from use(
            engine, machine.attention_core, timing.attention_s * batch,
            timeline, f"{label}:attn", _quanta(timing.attention_tiles, max_quanta),
        )
    else:
        cores = []
        if timing.dense_s > 0:
            cores.append(engine.spawn(
                use(engine, machine.dense_core, timing.dense_s * batch,
                    timeline, f"{label}:dense",
                    _quanta(timing.dense_tiles, max_quanta)),
                name=f"{label}:dense",
            ))
        if timing.sparse_s > 0:
            cores.append(engine.spawn(
                use(engine, machine.sparse_core, timing.sparse_s * batch,
                    timeline, f"{label}:sparse",
                    _quanta(timing.sparse_tiles, max_quanta)),
                name=f"{label}:sparse",
            ))
        for core in cores:
            yield Join(core)
    yield from use(
        engine, machine.spike_gen, timing.spike_gen_s * batch,
        timeline, f"{label}:spike_gen", 1,
    )


def stage_process(
    engine: ProcessEngine,
    machine: BishopMachine,
    timing: LayerTiming,
    label: str,
    batch: int = 1,
    timeline: list[TimelineEntry] | None = None,
    max_quanta: int = 1,
):
    """One compiled stage (layer) of a batched inference, in isolation.

    The compute chain and the stage's DRAM streaming run concurrently
    (double-buffered GLBs); the stage completes when both finish —
    ``max(compute, dram)`` when uncontended, longer when another request
    holds a core or the DRAM channel.
    """
    compute = engine.spawn(
        _compute_chain(engine, machine, timing, label, batch, timeline, max_quanta),
        name=f"{label}:compute",
    )
    dram_s = timing.dram_s(batch)
    dram = None
    if dram_s > 0:
        dram = engine.spawn(
            use(engine, machine.dram, dram_s, timeline, f"{label}:dram", 1),
            name=f"{label}:dram",
        )
    yield Join(compute)
    if dram is not None:
        yield Join(dram)


def inference_process(
    engine: ProcessEngine,
    machine: BishopMachine,
    timings: tuple[LayerTiming, ...],
    label: str = "request",
    batch: int = 1,
    timeline: list[TimelineEntry] | None = None,
    max_quanta: int = 1,
):
    """One (possibly batched) inference walking the layer chain: per
    layer one :func:`stage_process`, layers strictly serial."""
    for index, timing in enumerate(timings):
        yield from stage_process(
            engine, machine, timing, f"{label}/L{index}.{timing.kind}",
            batch, timeline, max_quanta,
        )


def scheduled_inference_process(
    engine: ProcessEngine,
    machine: BishopMachine,
    timings: tuple[LayerTiming, ...],
    label: str = "request",
    batch: int = 1,
    timeline: list[TimelineEntry] | None = None,
    max_quanta: int = 1,
):
    """One inference under the compiler's depth-1 weight-prefetch schedule.

    A prefetcher process streams each layer's *weights* as soon as the
    DRAM channel frees up and the previous layer's compute has started
    (the ping-pong weight GLB holds one layer in use plus one filling),
    while the compute chain walks the layers.  A layer completes only
    when its compute, its activation streaming and its weight stream have
    all finished, so the makespan is ≤ :func:`inference_process`'s.
    """
    n = len(timings)
    compute_started = [False] * n
    weights_done = [False] * n
    started_gate = engine.gate()
    weights_gate = engine.gate()

    def prefetcher():
        for index, timing in enumerate(timings):
            # Depth-1 double buffer: layer i's weights may stream only once
            # layer i-1 has begun computing (its own weights left the GLB).
            while index > 0 and not compute_started[index - 1]:
                yield WaitFor(started_gate)
            if timing.weight_dram_s > 0:
                yield from use(
                    engine, machine.dram, timing.weight_dram_s,
                    timeline, f"{label}/L{index}.{timing.kind}:dram.w", 1,
                )
            weights_done[index] = True
            weights_gate.signal()

    prefetch = None
    for index, timing in enumerate(timings):
        compute_started[index] = True
        layer_label = f"{label}/L{index}.{timing.kind}"
        compute = engine.spawn(
            _compute_chain(
                engine, machine, timing, layer_label, batch, timeline, max_quanta
            ),
            name=f"{layer_label}:compute",
        )
        activation_s = batch * timing.activation_dram_s
        activation = None
        if activation_s > 0:
            activation = engine.spawn(
                use(engine, machine.dram, activation_s, timeline,
                    f"{layer_label}:dram.a", 1),
                name=f"{layer_label}:dram.a",
            )
        # The prefetcher is spawned — and, on later layers, woken — only
        # after this layer's own streams are in the DRAM queue: a layer's
        # activation traffic must never end up FIFO-queued behind the
        # *next* layer's weight prefetch.
        if prefetch is None:
            prefetch = engine.spawn(prefetcher(), name=f"{label}:prefetch")
        started_gate.signal()
        yield Join(compute)
        if activation is not None:
            yield Join(activation)
        while not weights_done[index]:
            yield WaitFor(weights_gate)


def reference_makespan(
    timings: tuple[LayerTiming, ...],
    scheduled: bool = False,
    batch: int = 1,
    max_quanta: int = 1,
) -> float:
    """Uncontended makespan of one request on the generator lanes."""
    engine = ProcessEngine()
    machine = BishopMachine(engine)
    process = scheduled_inference_process if scheduled else inference_process
    engine.spawn(
        process(engine, machine, timings, "measure", batch, None, max_quanta),
        name="measure",
    )
    return engine.run()


def serial_closed_form(
    timings: tuple[LayerTiming, ...], batch: int = 1
) -> float:
    """The layer-serial makespan ``Σ max(batch·compute, dram(batch))``:
    ``Program.serial_latency_s`` at batch 1."""
    return sum(max(batch * t.compute_s, t.dram_s(batch)) for t in timings)


def replay_makespan(
    timings: tuple[LayerTiming, ...],
    scheduled: bool = False,
    batch: int = 1,
) -> float:
    """Uncontended makespan of one request on the callback replays.  The
    replay records a timeline, so it is never elided: every occupancy is
    a callback hold."""
    engine = Engine()
    replay = ScheduledReplay if scheduled else SerialReplay
    replay(
        engine, BishopMachine(engine), tuple(timings), "measure", batch, []
    ).start(lambda: None)
    return engine.run()


def replay_inference(
    report: InferenceReport,
    energy: EnergyModel | None = None,
) -> EngineRun:
    """The compiled program of a ``run_trace`` report replayed as a
    ``SerialReplay`` on a fresh engine, with a timeline: a recording
    replay is never elided, so every occupancy is a callback hold.  The
    energy adds the static share over the measured makespan."""
    energy = energy or EnergyModel()
    timings = report.program.timings()
    engine = Engine()
    timeline: list[TimelineEntry] = []
    SerialReplay(
        engine, BishopMachine(engine), timings, report.model_name, 1, timeline
    ).start(lambda: None)
    engine.run()
    dynamic_pj = sum(timing.dynamic_pj for timing in timings)
    return EngineRun.capture(
        engine,
        energy_pj=dynamic_pj + energy.static_pj(engine.now),
        timeline=timeline,
    )


class _Lanes:
    """A replay's ``start(wake)`` over generator processes: one lane
    process runs them in turn, then calls ``wake``."""

    def __init__(self, engine: ProcessEngine, label: str, processes):
        self.engine = engine
        self.label = label
        self.processes = processes

    def start(self, wake: Callable[[], None]) -> None:
        def lane():
            for process in self.processes:
                yield from process
            wake()

        self.engine.spawn(lane(), name=self.label)


class SerialLanes(_Lanes):
    """``SerialReplay``'s interface: layers ``index .. stop-1``, one
    :func:`stage_process` after another."""

    def __init__(
        self,
        engine: ProcessEngine,
        machine: BishopMachine,
        timings: tuple[LayerTiming, ...],
        label: str = "request",
        batch: int = 1,
        timeline: list[TimelineEntry] | None = None,
        index: int = 0,
        stop: int | None = None,
    ):
        stop = len(timings) if stop is None else stop
        super().__init__(engine, label, (
            stage_process(
                engine, machine, timings[i], f"{label}/L{i}.{timings[i].kind}",
                batch, timeline,
            )
            for i in range(index, stop)
        ))


class ScheduledLanes(_Lanes):
    """``ScheduledReplay``'s interface over
    :func:`scheduled_inference_process`."""

    def __init__(
        self,
        engine: ProcessEngine,
        machine: BishopMachine,
        timings: tuple[LayerTiming, ...],
        label: str = "request",
        batch: int = 1,
        timeline: list[TimelineEntry] | None = None,
    ):
        super().__init__(engine, label, [scheduled_inference_process(
            engine, machine, timings, label, batch, timeline
        )])
