"""The Bishop compiler's tile-level IR: ``Program`` → ``Stage`` → ``TileOp``.

A :class:`Program` is the compiled form of one model inference on one chip
configuration: an ordered tuple of :class:`Stage` objects (one per traced
matmul / attention layer), each holding the :class:`TileOp` occupancies the
stage places on the chip's execution units — dense core, sparse core,
attention core, spike generator, and the DRAM channel — plus JSON-safe
annotations recording what the optimization passes decided (bundle
occupancy, stratification split, ECP keep fractions, work and traffic
accounting).

The IR is deliberately *post-binding*: durations are in seconds on the
target chip's clock, so a deserialized program replays on the discrete-event
engine without touching numpy or the analytic core models — which is what
makes the on-disk program cache (``repro.compiler.cache``) a cheap
cross-process reuse path for serving and cluster simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..model.trace import MATMUL_KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.engine.machine import LayerTiming
    from ..arch.report import LayerReport

__all__ = [
    "CORE_CLASSES",
    "DRAM_TAGS",
    "LEGAL_CORES",
    "Program",
    "Stage",
    "TileOp",
    "legal_cores_for",
]

# The chip's five contended execution units (Fig. 9) — every TileOp binds to
# exactly one of these core classes.
CORE_CLASSES = ("dense_core", "sparse_core", "attention_core", "spike_gen", "dram")

# DRAM stream kinds: weights may be prefetched by the scheduling pass,
# activations are produced/consumed by the stage itself.
DRAM_TAGS = ("weight", "activation")

# Which core classes may legally execute a stage of each layer kind: matmul
# layers map onto the stratified dense+sparse datapath, attention layers onto
# the reconfigurable AAC/SAC attention core; both feed the spike generator
# and stream through the DRAM channel.
LEGAL_CORES: dict[str, frozenset[str]] = {
    **{
        kind: frozenset({"dense_core", "sparse_core", "spike_gen", "dram"})
        for kind in MATMUL_KINDS
    },
    "attention": frozenset({"attention_core", "spike_gen", "dram"}),
}


def legal_cores_for(kind: str) -> frozenset[str]:
    """Core classes allowed to execute a stage of layer ``kind``."""
    return LEGAL_CORES.get(kind, frozenset(CORE_CLASSES))


@dataclass(frozen=True)
class TileOp:
    """One stage's occupancy of one core class.

    ``tiles`` is the acquire/release granularity on the event engine (TTB
    tile interleaving); ``bytes`` is nonzero for DRAM streams, with ``tag``
    distinguishing the weight stream (prefetchable) from the activation
    stream (bound to its stage).
    """

    core: str
    duration_s: float
    tiles: int = 1
    bytes: float = 0.0
    tag: str = ""

    def __post_init__(self) -> None:
        if self.core not in CORE_CLASSES:
            raise ValueError(
                f"unknown core class {self.core!r}; options {CORE_CLASSES}"
            )
        if self.duration_s < 0:
            raise ValueError(f"negative duration {self.duration_s}")
        if self.tiles < 1:
            raise ValueError(f"tiles must be >= 1, got {self.tiles}")
        if self.tag and self.tag not in DRAM_TAGS:
            raise ValueError(f"unknown dram tag {self.tag!r}; options {DRAM_TAGS}")

    def to_dict(self) -> dict:
        payload = {
            "core": self.core,
            "duration_s": self.duration_s,
            "tiles": self.tiles,
        }
        if self.bytes:
            payload["bytes"] = self.bytes
        if self.tag:
            payload["tag"] = self.tag
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TileOp":
        return cls(
            core=str(payload["core"]),
            duration_s=float(payload["duration_s"]),
            tiles=int(payload.get("tiles", 1)),
            bytes=float(payload.get("bytes", 0.0)),
            tag=str(payload.get("tag", "")),
        )


@dataclass(frozen=True)
class Stage:
    """One traced layer bound to the chip: tile ops plus pass annotations.

    ``report`` carries the full analytic :class:`~repro.arch.report.LayerReport`
    when the stage was compiled in-process (``run_trace`` materializes the
    inference report from it); it is *not* serialized — a cache-loaded
    program has ``report=None`` and still replays on the engine.
    """

    index: int
    block: int
    kind: str
    phase: str
    ops: tuple[TileOp, ...] = ()
    annotations: dict = field(default_factory=dict)
    report: "LayerReport | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        illegal = [op.core for op in self.ops if op.core not in self.legal_cores]
        if illegal:
            raise ValueError(
                f"stage {self.index} ({self.kind}) binds illegal core(s)"
                f" {illegal}; legal: {sorted(self.legal_cores)}"
            )

    # -- structure ---------------------------------------------------------
    @property
    def legal_cores(self) -> frozenset[str]:
        return legal_cores_for(self.kind)

    def op(self, core: str, tag: str | None = None) -> TileOp | None:
        """The (first) op bound to ``core`` (and ``tag``, when given)."""
        for op in self.ops:
            if op.core == core and (tag is None or op.tag == tag):
                return op
        return None

    def _duration(self, core: str, tag: str | None = None) -> float:
        op = self.op(core, tag)
        return op.duration_s if op is not None else 0.0

    # -- timing ------------------------------------------------------------
    @property
    def weight_dram_s(self) -> float:
        return self._duration("dram", "weight")

    @property
    def activation_dram_s(self) -> float:
        return self._duration("dram", "activation")

    @property
    def dram_s(self) -> float:
        return sum(op.duration_s for op in self.ops if op.core == "dram")

    @property
    def compute_s(self) -> float:
        """Critical-path compute time — the Fig.-9 dataflow: dense ∥ sparse
        (or the attention core), then the spike generator merges/fires."""
        return (
            max(self._duration("dense_core"), self._duration("sparse_core"))
            + self._duration("attention_core")
            + self._duration("spike_gen")
        )

    @property
    def latency_s(self) -> float:
        """Uncontended stage latency: compute ∥ double-buffered streaming."""
        return max(self.compute_s, self.dram_s)

    def timing(self) -> "LayerTiming":
        """The engine task descriptor of this stage: its ops' durations and
        tile counts, plus the energy annotations of
        :func:`~repro.compiler.lowering.stage_ops`."""
        from ..arch.engine.machine import LayerTiming

        def tiles(core: str) -> int:
            op = self.op(core)
            return op.tiles if op is not None else 1

        return LayerTiming(
            block=self.block,
            kind=self.kind,
            phase=self.phase,
            dense_s=self._duration("dense_core"),
            sparse_s=self._duration("sparse_core"),
            attention_s=self._duration("attention_core"),
            spike_gen_s=self._duration("spike_gen"),
            weight_dram_s=self.weight_dram_s,
            activation_dram_s=self.activation_dram_s,
            dynamic_pj=float(self.annotations.get("dynamic_pj", 0.0)),
            weight_dram_pj=float(self.annotations.get("weight_dram_pj", 0.0)),
            dense_tiles=tiles("dense_core"),
            sparse_tiles=tiles("sparse_core"),
            attention_tiles=tiles("attention_core"),
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "block": self.block,
            "kind": self.kind,
            "phase": self.phase,
            "ops": [op.to_dict() for op in self.ops],
            "annotations": dict(self.annotations),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Stage":
        return cls(
            index=int(payload["index"]),
            block=int(payload["block"]),
            kind=str(payload["kind"]),
            phase=str(payload["phase"]),
            ops=tuple(TileOp.from_dict(op) for op in payload.get("ops", ())),
            annotations=dict(payload.get("annotations", {})),
        )


@dataclass(frozen=True)
class Program:
    """A compiled, engine-ready inference: the unit the program cache stores.

    ``passes`` records the pass pipeline that produced the program (in run
    order); ``chip`` is the JSON-safe chip configuration it was bound to;
    ``meta`` carries program-level results (estimated serial latency, the
    scheduling pass's measured makespan, total dynamic energy, …).
    """

    model: str
    stages: tuple[Stage, ...] = ()
    passes: tuple[str, ...] = ()
    chip: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- latency estimates -------------------------------------------------
    @property
    def serial_latency_s(self) -> float:
        """Layer-serial makespan: ``Σ max(compute, dram)``."""
        return sum(stage.latency_s for stage in self.stages)

    @property
    def pipelined_bound_s(self) -> float:
        """No schedule beats ``max(Σ compute, Σ dram)`` on two resources."""
        return max(
            sum(stage.compute_s for stage in self.stages),
            sum(stage.dram_s for stage in self.stages),
        )

    @property
    def scheduled(self) -> bool:
        """Whether the prefetch/double-buffer scheduling pass ran."""
        return "schedule" in self.passes

    @property
    def scheduled_latency_s(self) -> float | None:
        """Makespan under depth-1 weight prefetch, computed in closed form
        by the scheduling pass (``None`` when the pass did not run)."""
        value = self.meta.get("scheduled_latency_s")
        return float(value) if value is not None else None

    @property
    def request_latency_s(self) -> float:
        """Uncontended single-request latency under the compiled schedule."""
        if self.scheduled and self.scheduled_latency_s is not None:
            return self.scheduled_latency_s
        return self.serial_latency_s

    # -- energy / work -----------------------------------------------------
    @property
    def dynamic_pj(self) -> float:
        return sum(
            float(stage.annotations.get("dynamic_pj", 0.0)) for stage in self.stages
        )

    @property
    def dram_bytes(self) -> float:
        return sum(op.bytes for stage in self.stages for op in stage.ops)

    # -- engine emission ---------------------------------------------------
    def timings(self) -> tuple["LayerTiming", ...]:
        """The engine task graph (one :class:`LayerTiming` per stage)."""
        return tuple(stage.timing() for stage in self.stages)

    # -- summaries ---------------------------------------------------------
    def tile_counts(self) -> dict[str, int]:
        """Total TTB tiles bound per core class (the ``repro compile`` view)."""
        counts = {core: 0 for core in CORE_CLASSES}
        for stage in self.stages:
            for op in stage.ops:
                counts[op.core] += op.tiles
        return counts

    def bundle_occupancy(self) -> float:
        """Mean active-bundle fraction over stages that annotated it."""
        values = [
            float(stage.annotations["bundle_occupancy"])
            for stage in self.stages
            if "bundle_occupancy" in stage.annotations
        ]
        return sum(values) / len(values) if values else 0.0

    def stage_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for stage in self.stages:
            counts[stage.phase] = counts.get(stage.phase, 0) + 1
        return counts

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "passes": list(self.passes),
            "chip": dict(self.chip),
            "meta": dict(self.meta),
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Program":
        return cls(
            model=str(payload["model"]),
            stages=tuple(Stage.from_dict(s) for s in payload.get("stages", ())),
            passes=tuple(str(p) for p in payload.get("passes", ())),
            chip=dict(payload.get("chip", {})),
            meta=dict(payload.get("meta", {})),
        )
