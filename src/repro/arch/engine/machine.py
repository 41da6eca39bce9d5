"""The Bishop chip as a set of contended engine resources (Fig. 9).

The analytical core models (``dense_core``/``sparse_core``/``attention_core``
/``spike_generator``) stay the single source of truth for *how long* each
unit works on a layer; the compiler lowers those per-layer numbers into
IR tile ops, and a compiled stage hands the engine one
:class:`LayerTiming` task descriptor
(:meth:`~repro.compiler.ir.Stage.timing`).  :class:`BishopMachine` holds
the five shared units — dense core, sparse core, attention core, spike
generator, DRAM channel — as :class:`~repro.arch.engine.kernel.Resource`
objects on one engine clock.

Uncontended latency is not measured here: the compiled
:class:`~repro.compiler.ir.Program` answers it in closed form (the
schedule pass's :func:`~repro.compiler.passes.prefetch_makespan`).  The
callback replays of :mod:`.lanes` (one timed event per occupancy) serve
every contended run — a program that starts on an idle chip is walked to
one wake at its finish until another replay starts beside it
(``BishopMachine.elided``).  Multiple in-flight requests queue on the
same resources, which is what the serving layer (``repro.serve``)
measures.  Each machine's resources hold their engine, and the engine
holds the resources: those cycles live until
:meth:`Engine.teardown <repro.arch.engine.kernel.Engine.teardown>`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import Engine, Resource

__all__ = ["BishopMachine", "LayerTiming"]


@dataclass(frozen=True)
class LayerTiming:
    """One layer's engine task durations, read off a compiled stage."""

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

