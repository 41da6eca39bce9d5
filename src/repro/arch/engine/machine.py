"""The Bishop chip as a set of contended engine resources (Fig. 9).

The analytical core models (``dense_core``/``sparse_core``/``attention_core``
/``spike_generator``) stay the single source of truth for *how long* each
unit works on a layer; this module turns those per-layer numbers into
:class:`LayerTiming` task descriptors and replays them on the event engine,
where the five shared units — dense core, sparse core, attention core,
spike generator, DRAM channel — are :class:`~repro.arch.engine.kernel.Resource`
objects that requests acquire and release per TTB tile.

For a single request the event schedule reproduces the closed-form
``Σ max(compute, dram)`` latency exactly (the regression-test oracle); its
value is contention: multiple in-flight requests queue on the same
resources, which is what the serving layer (``repro.serve``) measures.

The generator processes below are the reference replay, run under
``REPRO_ENGINE=kernel``.  In fast mode the serving lanes replay the same
task graphs through their callback twins in :mod:`.lanes`, with one
event per occupancy instead of a process per task.  Each machine's
resources hold their engine and their cached commands, and the engine
holds the resources: those cycles live until
:meth:`Engine.teardown <repro.arch.engine.kernel.Engine.teardown>`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BishopConfig
from ..energy import EnergyModel
from ..report import InferenceReport, LayerReport
from .kernel import Engine, Join, Resource, WaitFor
from .timeline import EngineRun, TimelineEntry, use

__all__ = [
    "BishopMachine",
    "LayerTiming",
    "inference_process",
    "layer_timings",
    "scheduled_inference_process",
    "simulate_inference",
    "stage_process",
]

# Upper bound on acquire/release quanta per core task: tile-granular
# interleaving with a cap so event counts stay linear in layers, not tiles.
MAX_QUANTA = 8


@dataclass(frozen=True)
class LayerTiming:
    """One layer's engine task durations, extracted from a LayerReport."""

    block: int
    kind: str
    phase: str
    dense_s: float = 0.0
    sparse_s: float = 0.0
    attention_s: float = 0.0
    spike_gen_s: float = 0.0
    weight_dram_s: float = 0.0
    activation_dram_s: float = 0.0
    dynamic_pj: float = 0.0        # layer energy minus the static share
    weight_dram_pj: float = 0.0    # the part a batch streams only once
    dense_tiles: int = 1
    sparse_tiles: int = 1
    attention_tiles: int = 1

    @property
    def compute_s(self) -> float:
        """Critical-path compute time (parallel cores, then spike gen)."""
        return max(self.dense_s, self.sparse_s) + self.attention_s + self.spike_gen_s

    def dram_s(self, batch: int = 1) -> float:
        """DRAM channel time: weights stream once per batch, activations per
        request (the double-buffered GLBs hold one request's working set)."""
        return self.weight_dram_s + batch * self.activation_dram_s

    def batch_dynamic_pj(self, batch: int = 1) -> float:
        return (self.dynamic_pj - self.weight_dram_pj) * batch + self.weight_dram_pj


def layer_timing(
    layer: LayerReport,
    config: BishopConfig,
    energy: EnergyModel,
) -> LayerTiming:
    """Extract engine task durations from one analytic layer report."""
    clock = config.clock_hz
    units = layer.unit_cycles
    weight_bytes = layer.traffic.bytes(level="dram", kind="weight")
    activation_bytes = layer.traffic.bytes(level="dram") - weight_bytes
    if layer.phase == "ATN":
        attention_s = (units.get("mode1", 0.0) + units.get("mode2", 0.0)) / clock
        dense_s = sparse_s = 0.0
    else:
        attention_s = 0.0
        dense_s = units.get("dense", 0.0) / clock
        sparse_s = units.get("sparse", 0.0) / clock
    return LayerTiming(
        block=layer.block,
        kind=layer.kind,
        phase=layer.phase,
        dense_s=dense_s,
        sparse_s=sparse_s,
        attention_s=attention_s,
        spike_gen_s=units.get("spike_gen", 0.0) / clock,
        weight_dram_s=config.dram.transfer_time_s(weight_bytes),
        activation_dram_s=config.dram.transfer_time_s(activation_bytes),
        dynamic_pj=layer.energy.total_pj - layer.energy.static_pj,
        weight_dram_pj=energy.memory_pj("dram", weight_bytes),
        dense_tiles=int(layer.notes.get("dense_tiles", 1)),
        sparse_tiles=int(layer.notes.get("sparse_tiles", 1)),
        attention_tiles=int(layer.notes.get("attention_tiles", 1)),
    )


def layer_timings(
    report: InferenceReport,
    config: BishopConfig,
    energy: EnergyModel | None = None,
) -> tuple[LayerTiming, ...]:
    energy = energy or EnergyModel()
    return tuple(layer_timing(layer, config, energy) for layer in report.layers)


class BishopMachine:
    """One Bishop chip: the five contended resources of Fig. 9.

    Several machines may share one :class:`Engine` (the cluster clock):
    pass a unique ``name`` and every resource is registered under the
    ``<name>.<unit>`` namespace, so chips contend only with themselves.
    With ``name=None`` (the single-chip default) resource names stay bare,
    which is what the zoo regression oracle and ``repro.serve`` pin.
    """

    RESOURCE_NAMES = ("dense_core", "sparse_core", "attention_core", "spike_gen", "dram")

    def __init__(self, engine: Engine, name: str | None = None):
        self.engine = engine
        self.name = name
        prefix = f"{name}." if name else ""
        self.dense_core = engine.resource(f"{prefix}dense_core")
        self.sparse_core = engine.resource(f"{prefix}sparse_core")
        self.attention_core = engine.resource(f"{prefix}attention_core")
        self.spike_gen = engine.resource(f"{prefix}spike_gen")
        self.dram = engine.resource(f"{prefix}dram")

    @property
    def resources(self) -> dict[str, Resource]:
        """Short (un-prefixed) unit name → engine resource."""
        return {
            "dense_core": self.dense_core,
            "sparse_core": self.sparse_core,
            "attention_core": self.attention_core,
            "spike_gen": self.spike_gen,
            "dram": self.dram,
        }


def _max_quanta() -> int:
    # Fast mode coalesces same-resource event runs: one acquire/hold/release
    # per layer task, as its callback lanes (`lanes.py`) occupy each
    # resource once per task.  Kernel mode keeps tile-granular
    # interleaving.  Read once per inference or stage, not per core task.
    from .fastpath import engine_mode  # local: fastpath imports this module

    return 1 if engine_mode() == "fast" else MAX_QUANTA


def _quanta(tiles: int, max_quanta: int | None = None) -> int:
    """Acquire/release quanta of a ``tiles``-tile core task (mode cap if
    ``max_quanta`` is not given)."""
    if max_quanta is None:
        max_quanta = _max_quanta()
    return max(1, min(int(tiles), max_quanta))


def _compute_chain(
    engine: Engine,
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
    engine: Engine,
    machine: BishopMachine,
    timing: LayerTiming,
    label: str,
    batch: int = 1,
    timeline: list[TimelineEntry] | None = None,
):
    """One compiled ``Stage`` (layer) of a batched inference, in isolation.

    The compute chain and the stage's DRAM streaming run concurrently
    (double-buffered GLBs); the stage completes when both finish —
    ``max(compute, dram)`` when uncontended, longer when another request
    holds a core or the DRAM channel.  This is the schedulable quantum of
    the serving layer: :func:`inference_process` walks all stages
    back-to-back, while the continuous-batching scheduler
    (``repro.serve.continuous``) re-forms its execution groups *between*
    stage boundaries — the `TileOp`/`Stage` preemption points.  Fast-mode
    serving runs its callback twin,
    :class:`~repro.arch.engine.lanes.SerialReplay` over one stage.
    """
    return _stage(engine, machine, timing, label, batch, timeline, _max_quanta())


def _stage(
    engine: Engine,
    machine: BishopMachine,
    timing: LayerTiming,
    label: str,
    batch: int,
    timeline: list[TimelineEntry] | None,
    max_quanta: int,
):
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
    engine: Engine,
    machine: BishopMachine,
    timings: tuple[LayerTiming, ...],
    label: str = "request",
    batch: int = 1,
    timeline: list[TimelineEntry] | None = None,
):
    """One (possibly batched) inference walking the layer chain.

    Per layer, one :func:`stage_process`: compute and DRAM concurrent,
    layers strictly serial.  Callback twin:
    :class:`~repro.arch.engine.lanes.SerialReplay`.
    """
    max_quanta = _max_quanta()
    for index, timing in enumerate(timings):
        yield from _stage(
            engine, machine, timing, f"{label}/L{index}.{timing.kind}",
            batch, timeline, max_quanta,
        )


def scheduled_inference_process(
    engine: Engine,
    machine: BishopMachine,
    timings: tuple[LayerTiming, ...],
    label: str = "request",
    batch: int = 1,
    timeline: list[TimelineEntry] | None = None,
):
    """One inference under the compiler's depth-1 weight-prefetch schedule.

    The scheduling pass's emission: a prefetcher process streams each
    layer's *weights* as soon as the DRAM channel frees up and the previous
    layer's compute has started (the ping-pong weight GLB holds one layer in
    use plus one filling), while the compute chain walks the layers.  A
    layer still completes only when its compute, its activation streaming,
    and its weight stream have all finished — weights are consumed
    tile-by-tile, so compute can never outrun the stream — which keeps the
    schedule causal and makes its makespan ≤ the layer-serial
    :func:`inference_process` makespan (equal when one resource dominates
    every layer, strictly smaller on mixed compute-/memory-bound chains).
    Callback twin: :class:`~repro.arch.engine.lanes.ScheduledReplay`.
    """
    max_quanta = _max_quanta()
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


def simulate_inference(
    report: InferenceReport,
    config: BishopConfig,
    energy: EnergyModel | None = None,
    record_timeline: bool = True,
) -> EngineRun:
    """Replay one analytic inference report on the event engine.

    Single request, no contention: the makespan equals the closed-form
    ``Σ max(compute, dram)`` and the energy equals the analytical total —
    the agreement the zoo regression test pins to 1%.

    In fast mode (the ``REPRO_ENGINE`` default) the replay is synthesized
    by the vectorized :mod:`~repro.arch.engine.fastpath` — same makespan,
    energy, and (coalesced) timeline, no event heap.
    """
    energy = energy or EnergyModel()
    timings = layer_timings(report, config, energy)
    from ... import obs
    from .fastpath import engine_mode, schedule_for

    mode = engine_mode()
    obs.inc(f"engine.dispatch.{mode}")
    with obs.span(
        "engine.simulate", cat="engine", model=report.model_name, mode=mode
    ):
        if mode == "fast":
            schedule = schedule_for(timings)
            run = schedule.serial_run(
                batch=1, label=report.model_name, record_timeline=record_timeline
            )
            run.energy_pj = schedule.dynamic_pj + energy.static_pj(run.makespan_s)
            return run
        engine = Engine()
        machine = BishopMachine(engine)
        timeline: list[TimelineEntry] | None = [] if record_timeline else None
        engine.spawn(
            inference_process(
                engine, machine, timings, report.model_name, 1, timeline
            ),
            name=report.model_name,
        )
        engine.run()
        dynamic_pj = sum(timing.dynamic_pj for timing in timings)
        return EngineRun.capture(
            engine,
            energy_pj=dynamic_pj + energy.static_pj(engine.now),
            timeline=timeline,
        )
