"""The Bishop chip as a set of contended engine resources (Fig. 9).

The analytical core models (``dense_core``/``sparse_core``/``attention_core``
/``spike_generator``) stay the single source of truth for *how long* each
unit works on a layer; this module turns those per-layer numbers into
:class:`LayerTiming` task descriptors, and :class:`BishopMachine` holds
the five shared units — dense core, sparse core, attention core, spike
generator, DRAM channel — as :class:`~repro.arch.engine.kernel.Resource`
objects on one engine clock.

Uncontended latency is not measured here: the compiled
:class:`~repro.compiler.ir.Program` answers it in closed form (the
schedule pass through :mod:`.fastpath`).  The callback replays of
:mod:`.lanes` (one timed event per occupancy) serve every contended run
— a program that starts on an idle chip is walked to one wake at its
finish until another replay starts beside it (``BishopMachine.elided``).
Multiple in-flight requests queue on the same resources, which is what
the serving layer (``repro.serve``) measures.  Each machine's resources
hold their engine, and the engine holds the resources: those cycles live
until :meth:`Engine.teardown <repro.arch.engine.kernel.Engine.teardown>`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BishopConfig
from ..energy import EnergyModel
from ..report import LayerReport
from .kernel import Engine, Resource

__all__ = ["BishopMachine", "LayerTiming"]


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
        self.units = (
            self.dense_core, self.sparse_core, self.attention_core,
            self.spike_gen, self.dram,
        )
        # The replay running on this chip without events, if any
        # (``lanes.py``): the chip's resources do not show its holds.
        self.elided = None

    @property
    def resources(self) -> dict[str, Resource]:
        """Short (un-prefixed) unit name → engine resource."""
        return dict(zip(self.RESOURCE_NAMES, self.units))

