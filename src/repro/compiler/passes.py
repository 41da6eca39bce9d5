"""The Bishop compiler's pass pipeline.

Compilation turns a :class:`~repro.model.trace.ModelTrace` into an
engine-ready :class:`~repro.compiler.ir.Program` through ordered,
individually-testable passes over a mutable :class:`Compilation`:

``ingest``
    One :class:`StageDraft` per traced matmul/attention record, annotated
    with raw workload statistics (spikes, MACs, shapes), and one
    :class:`~repro.bundles.TTBGrid` per distinct input tensor — every later
    pass and core model reads these grids instead of re-bundling spikes.
``packing``
    TTB bundle packing (Sec. 3): activity tags gate fetch and compute, so
    inactive bundles vanish.  Off → every bundle processed as if active;
    the decision reaches the core models as their ``skip_inactive``
    argument.
``ecp``
    Error-constrained pruning plan (Sec. 5.1, reusing ``repro.algo.ecp``):
    attention stages get certified Q/K bundle-row keep plans.
``stratify``
    Algorithm-1 dense/sparse feature assignment (reusing
    ``repro.arch.stratifier`` through the lowering helpers).  Off → the
    whole layer runs on the dense core (``unstratified_workload``).
``lower``
    The analytic core models realize the plans into cycles, energy, and
    traffic; stage drafts gain :class:`~repro.compiler.ir.TileOp` bindings.
``schedule``
    Depth-1 weight-prefetch/double-buffer scheduling: marks weight streams
    prefetchable and computes the scheduled makespan in closed form
    (:func:`prefetch_makespan`).

:func:`compile_trace` assembles the pipeline from a :class:`PassConfig`:
each optimization pass can be toggled off, and the toggles are the only
switches for packing and stratification (the ``compiler_pass_ablation``
experiment and the architecture ablations toggle them).  The chip config
says how the cores are built, never whether an optimization runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .. import obs
from ..algo.ecp import ECPConfig
from ..arch.attention_core import merge_attention_heads
from ..arch.config import BishopConfig
from ..arch.energy import EnergyModel
from ..arch.engine.machine import LayerTiming
from ..arch.report import InferenceReport, LayerReport
from ..bundles import TTBGrid
from ..model.trace import LayerRecord, ModelTrace
from .ir import Program, Stage, TileOp
from .lowering import (
    lower_attention_layer,
    lower_matmul_layer,
    plan_stratification,
    stage_ops,
    unstratified_workload,
)

__all__ = [
    "Compilation",
    "CompilerPass",
    "PassConfig",
    "PassManager",
    "StageDraft",
    "BundlePackingPass",
    "ECPPlanningPass",
    "LowerPass",
    "SchedulePass",
    "StratifyPass",
    "TraceIngestPass",
    "compile_trace",
    "default_pipeline",
    "materialize_report",
    "prefetch_makespan",
]

# Optimization-pass toggles addressable from CLI specs.
_PASS_TOKENS = {
    "packing": "bundle_packing",
    "bundle_packing": "bundle_packing",
    "stratify": "stratify",
    "ecp": "ecp",
    "schedule": "schedule",
}


@dataclass(frozen=True)
class PassConfig:
    """Which optimization passes run (the mandatory ingest/lower always do)."""

    bundle_packing: bool = True
    stratify: bool = True
    ecp: bool = True
    schedule: bool = True

    @classmethod
    def parse(cls, spec: "str | PassConfig | None") -> "PassConfig":
        """``"all"`` / ``"none"`` / ``"packing+stratify+ecp+schedule"`` (any
        subset, ``+``-separated) → a :class:`PassConfig`."""
        if spec is None:
            return cls()
        if isinstance(spec, PassConfig):
            return spec
        text = spec.strip().lower()
        if text in ("all", "", "default"):
            return cls()
        if text in ("none", "off"):
            return cls(
                bundle_packing=False, stratify=False, ecp=False, schedule=False
            )
        enabled = {}
        for token in text.split("+"):
            token = token.strip()
            if not token:
                continue
            if token not in _PASS_TOKENS:
                raise ValueError(
                    f"unknown compiler pass {token!r}; options"
                    f" {sorted(set(_PASS_TOKENS))} (or 'all'/'none')"
                )
            enabled[_PASS_TOKENS[token]] = True
        return cls(
            bundle_packing=enabled.get("bundle_packing", False),
            stratify=enabled.get("stratify", False),
            ecp=enabled.get("ecp", False),
            schedule=enabled.get("schedule", False),
        )

    def spec(self) -> str:
        """Canonical string form (stable — feeds the program cache key)."""
        names = [
            name
            for name, on in (
                ("packing", self.bundle_packing),
                ("stratify", self.stratify),
                ("ecp", self.ecp),
                ("schedule", self.schedule),
            )
            if on
        ]
        if len(names) == 4:
            return "all"
        return "+".join(names) if names else "none"

    def without(self, name: str) -> "PassConfig":
        """This config with one pass toggled off (ablation helper)."""
        if name not in _PASS_TOKENS:
            raise ValueError(
                f"unknown compiler pass {name!r}; options {sorted(set(_PASS_TOKENS))}"
            )
        return replace(self, **{_PASS_TOKENS[name]: False})


@dataclass
class StageDraft:
    """Mutable per-stage state the passes successively refine."""

    index: int
    record: LayerRecord
    annotations: dict = field(default_factory=dict)
    workload: object | None = None      # StratifiedWorkload (stratify pass)
    packed: bool = False                # bundle-packing pass ran
    ecp: ECPConfig | None = None        # ECP plan (attention stages)
    report: LayerReport | None = None   # set by the lower pass
    ops: tuple[TileOp, ...] = ()
    # Ingest's grids: (input,) for a matmul, merged-head (Q, K, V) for
    # attention.  proj_q/k/v share one input array and so one grid.
    grids: tuple[TTBGrid, ...] = ()

    @property
    def kind(self) -> str:
        return self.record.kind

    @property
    def is_matmul(self) -> bool:
        return self.record.is_matmul


@dataclass
class Compilation:
    """One compilation in flight: inputs, drafts, and the pass log."""

    trace: ModelTrace
    config: BishopConfig
    energy: EnergyModel
    ecp: ECPConfig | None = None
    drafts: list[StageDraft] = field(default_factory=list)
    log: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # Work counters, added to ``obs`` once per PassManager.run.
    grid_builds: int = 0
    theta_candidates: int = 0


class CompilerPass:
    """One step of the pipeline; subclasses set ``name`` and ``run``."""

    name = "pass"

    def run(self, comp: Compilation) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class TraceIngestPass(CompilerPass):
    """Trace → stage drafts with raw workload statistics."""

    name = "ingest"

    def run(self, comp: Compilation) -> None:
        spec = comp.config.bundle_spec
        grids: dict[int, TTBGrid] = {}  # id(spike array) -> its one grid

        def grid_of(spikes, per_head: bool = False) -> TTBGrid:
            if id(spikes) not in grids:
                full = merge_attention_heads(spikes) if per_head else spikes
                grids[id(spikes)] = TTBGrid(full, spec)
            return grids[id(spikes)]

        for record in comp.trace.records:
            if not (record.is_matmul or record.kind == "attention"):
                continue  # tokenizer/head are outside Bishop's scope
            draft = StageDraft(index=len(comp.drafts), record=record)
            draft.annotations["macs"] = float(record.macs())
            if record.is_matmul:
                draft.grids = (grid_of(record.input_spikes),)
                t, n, d_in = draft.grids[0].shape
                draft.annotations.update(
                    timesteps=float(t), tokens=float(n),
                    in_features=float(d_in),
                    out_features=float(record.weight_shape[1]),
                    spike_count=float(draft.grids[0].spike_count),
                )
            else:
                draft.grids = tuple(
                    grid_of(x, per_head=True) for x in (record.q, record.k, record.v)
                )
                t, h, n, d = record.q.shape
                draft.annotations.update(
                    timesteps=float(t), tokens=float(n), heads=float(h),
                    in_features=float(h * d),
                    spike_count=float(
                        sum(grid.spike_count for grid in draft.grids)
                    ),
                )
            comp.drafts.append(draft)
        comp.grid_builds += len(grids)


class BundlePackingPass(CompilerPass):
    """TTB bundle packing: annotate activity tags, enable inactive-bundle
    skipping in the lowering (Sec. 3's Eq.-9 tags)."""

    name = "packing"

    def run(self, comp: Compilation) -> None:
        for draft in comp.drafts:
            draft.packed = True
            if draft.is_matmul:
                (grid,) = draft.grids
                draft.annotations.update(
                    num_bundles=float(grid.num_bundles),
                    active_bundles=float(grid.num_active_bundles),
                    bundle_occupancy=grid.bundle_density,
                )
            else:
                q_grid, k_grid, _ = draft.grids
                total = q_grid.num_bundles + k_grid.num_bundles
                active = q_grid.num_active_bundles + k_grid.num_active_bundles
                draft.annotations.update(
                    num_bundles=float(total),
                    active_bundles=float(active),
                    bundle_occupancy=active / total if total else 0.0,
                )


class ECPPlanningPass(CompilerPass):
    """Error-constrained pruning plan for attention stages (Sec. 5.1).

    The pass decides *which* stages prune and records the certified
    per-score error bound (``max(θ_q, θ_k)`` by construction — no pruning
    run needed); the realized Q/K keep fractions come out of the lowering
    itself (``q_keep_fraction``/``k_keep_fraction`` annotations), which
    runs the pruning exactly once per stage.
    """

    name = "ecp"

    def run(self, comp: Compilation) -> None:
        if comp.ecp is None:
            return
        for draft in comp.drafts:
            if draft.kind != "attention":
                continue
            draft.ecp = comp.ecp
            draft.annotations.update(
                ecp_theta_q=float(comp.ecp.theta_q),
                ecp_theta_k=float(comp.ecp.theta_k),
                ecp_error_bound=float(
                    max(comp.ecp.theta_q, comp.ecp.theta_k)
                ),
            )


class StratifyPass(CompilerPass):
    """Algorithm-1 dense/sparse feature assignment for matmul stages."""

    name = "stratify"

    def run(self, comp: Compilation) -> None:
        for draft in comp.drafts:
            if not draft.is_matmul:
                continue
            workload = plan_stratification(
                draft.grids[0], draft.record.weight_shape[1], comp.config,
                skip_inactive=draft.packed,
            )
            comp.theta_candidates += workload.theta_candidates
            draft.workload = workload
            draft.annotations.update(
                theta_s=workload.theta,
                dense_fraction=workload.dense_fraction,
                dense_features=float(len(workload.dense_features)),
                sparse_features=float(len(workload.sparse_features)),
            )


class LowerPass(CompilerPass):
    """Realize the plans through the analytic core models → tile ops."""

    name = "lower"

    def run(self, comp: Compilation) -> None:
        config = comp.config
        for draft in comp.drafts:
            if draft.is_matmul:
                workload = draft.workload
                if workload is None:  # stratify pass off → everything dense
                    workload = unstratified_workload(
                        draft.grids[0], config, draft.packed
                    )
                report = lower_matmul_layer(
                    draft.record, workload, config, comp.energy,
                    skip_inactive=draft.packed, grid=draft.grids[0],
                )
            else:
                report = lower_attention_layer(
                    draft.record, config, comp.energy, ecp=draft.ecp,
                    grids=draft.grids, skip_inactive=draft.packed,
                )
            draft.report = report
            ops, annotations = stage_ops(report, config, comp.energy)
            draft.ops = ops
            # Pass annotations (the plan) take precedence over lowering
            # echoes of the same keys.
            draft.annotations = {**annotations, **draft.annotations}


class SchedulePass(CompilerPass):
    """Prefetch/double-buffer scheduling: mark weight streams prefetchable
    and measure the scheduled makespan in closed form."""

    name = "schedule"

    def run(self, comp: Compilation) -> None:
        timings = []
        for draft in comp.drafts:
            if draft.report is None:
                raise RuntimeError("schedule pass requires lowered stages")
            draft.annotations["prefetch_weights"] = True
            timings.append(_draft_stage(draft).timing())
        comp.meta["scheduled_latency_s"] = prefetch_makespan(timings)


def prefetch_makespan(timings: Sequence[LayerTiming]) -> float:
    """Makespan of one uncontended request under depth-1 weight prefetch.

    A linear recurrence over the DRAM channel's deterministic FIFO service
    order ``a₀, w₀, w₁, a₁, w₂, a₂, …``, mirroring
    :class:`~repro.arch.engine.lanes.ScheduledReplay` event for event: layer
    ``i``'s weights may stream once layer ``i-1`` has started and the
    previous weight stream finished, and a layer completes when its
    compute, its activation stream, and its own weight stream are all done.
    """
    finish = 0.0        # completion time of the previous layer
    prev_start = 0.0    # when the previous layer started (prefetch gate)
    channel = 0.0       # DRAM channel free time (last FIFO service end)
    weights_done = 0.0  # when the previous layer's weight stream ended
    for index, timing in enumerate(timings):
        w = timing.weight_dram_s
        a = timing.activation_dram_s
        start = finish
        if index == 0:
            # Layer 0: its activation enqueues before the prefetcher
            # even exists, so it wins the channel over w0.
            a_end = 0.0
            if a > 0:
                channel += a
                a_end = channel
            if w > 0:
                channel += w
                weights_done = channel
        else:
            # w_i is requested at max(prev weights done, prev layer
            # start) — never later than this layer's start, and at ties
            # the prefetcher's acquire lands before the new layer's
            # activation enqueues, so w_i is served first.
            if w > 0:
                channel = max(channel, weights_done, prev_start) + w
                new_done = channel
            else:
                new_done = max(weights_done, prev_start)
            if a > 0:
                channel = max(channel, start) + a
                a_end = channel
            else:
                a_end = start
            weights_done = new_done
        finish = max(start + timing.compute_s, a_end, weights_done)
        prev_start = start
    return finish


def _draft_stage(draft: StageDraft) -> Stage:
    return Stage(
        index=draft.index,
        block=draft.record.block,
        kind=draft.record.kind,
        phase=draft.record.phase,
        ops=draft.ops,
        annotations=dict(draft.annotations),
        report=draft.report,
    )


class PassManager:
    """Runs an ordered pass pipeline and finishes the Program."""

    def __init__(self, pipeline: Sequence[CompilerPass]):
        self.pipeline = tuple(pipeline)

    def run(self, comp: Compilation, meta: dict | None = None) -> Program:
        for compiler_pass in self.pipeline:
            with obs.span(
                f"compile.pass.{compiler_pass.name}", cat="compile"
            ):
                compiler_pass.run(comp)
            comp.log.append(compiler_pass.name)
        obs.inc("compile.grid_builds", comp.grid_builds)
        obs.inc("compile.theta_candidates", comp.theta_candidates)
        if any(draft.report is None for draft in comp.drafts):
            raise RuntimeError(
                "pass pipeline finished without lowering every stage;"
                " include LowerPass"
            )
        stages = tuple(_draft_stage(draft) for draft in comp.drafts)
        program = Program(
            model=comp.trace.model_name,
            stages=stages,
            passes=tuple(comp.log),
            chip=_chip_dict(comp.config),
            meta={**comp.meta, **(meta or {})},
        )
        # Program-level estimates, recorded for dumps and cache hits.
        extra = {
            "serial_latency_s": program.serial_latency_s,
            "pipelined_bound_s": program.pipelined_bound_s,
            "dynamic_pj": program.dynamic_pj,
            "request_latency_s": program.request_latency_s,
        }
        program.meta.update(extra)
        return program


def _chip_dict(config: BishopConfig) -> dict:
    """JSON-safe chip description (nested dataclasses flattened)."""
    import dataclasses

    return dataclasses.asdict(config)


def default_pipeline(
    passes: PassConfig, ecp: ECPConfig | None = None
) -> list[CompilerPass]:
    """The standard pipeline for the pass toggles (ECP needs a plan)."""
    pipeline: list[CompilerPass] = [TraceIngestPass()]
    if passes.bundle_packing:
        pipeline.append(BundlePackingPass())
    if passes.ecp and ecp is not None:
        pipeline.append(ECPPlanningPass())
    if passes.stratify:
        pipeline.append(StratifyPass())
    pipeline.append(LowerPass())
    if passes.schedule:
        pipeline.append(SchedulePass())
    return pipeline


def compile_trace(
    trace: ModelTrace,
    config: BishopConfig | None = None,
    energy: EnergyModel | None = None,
    ecp: ECPConfig | None = None,
    passes: "PassConfig | str | None" = None,
    meta: dict | None = None,
) -> Program:
    """Compile one model trace into an engine-ready :class:`Program`."""
    config = config or BishopConfig()
    energy = energy or EnergyModel()
    pass_config = PassConfig.parse(passes)
    comp = Compilation(trace=trace, config=config, energy=energy, ecp=ecp)
    manager = PassManager(default_pipeline(pass_config, ecp))
    base_meta = {"pass_config": pass_config.spec()}
    if meta:
        base_meta.update(meta)
    return manager.run(comp, meta=base_meta)


def materialize_report(program: Program) -> InferenceReport:
    """The analytic :class:`InferenceReport` behind an in-process program.

    Only available when the program was compiled in this process (stage
    reports are not serialized; a cache-loaded program raises).
    """
    layers = []
    for stage in program.stages:
        if stage.report is None:
            raise ValueError(
                "program has no stage reports (loaded from cache?);"
                " recompile from the trace to materialize an InferenceReport"
            )
        layers.append(stage.report)
    return InferenceReport(
        accelerator="bishop",
        model_name=program.model,
        layers=layers,
        program=program,
    )
