"""Layer lowering: the analytic core models applied to one traced layer.

This module is the compiler's back end — and the *single* lowering path of
the repo: the :class:`~repro.compiler.passes.StratifyPass` and
:class:`~repro.compiler.passes.LowerPass` call these functions with the
pass-derived plans, and calling them directly on a layer gives the same
:class:`LayerReport` bit for bit.  Whether inactive bundles are skipped is
the bundle-packing pass's decision, passed in as ``skip_inactive``; the
chip config only says how the cores are built.

The split of responsibilities:

* :func:`plan_stratification` — Algorithm-1 θ_s policy (the stratify pass);
* :func:`unstratified_workload` — the everything-dense plan used when the
  stratify pass is off;
* :func:`lower_matmul_layer` / :func:`lower_attention_layer` — cycle/energy/
  traffic models composed into a :class:`LayerReport`;
* :func:`stage_ops` — decompose a lowered report into the IR's
  :class:`~repro.compiler.ir.TileOp` occupancies, from which
  :meth:`~repro.compiler.ir.Stage.timing` builds the engine's task
  descriptor.

Each layer is bundled and counted once: planning reduces the layer's
ingest :class:`TTBGrid` to per-feature statistics (one
:func:`~repro.arch.dense_core.dense_tile_activity`), the plan carries
them, and the core models get their sums over the plan's dense and sparse
features — no partition is copied out of the grid.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..algo.ecp import ECPConfig
from ..arch.attention_core import merge_attention_heads, simulate_attention_core
from ..arch.config import BishopConfig
from ..arch.dense_core import (
    dense_core_cycles,
    dense_tile_activity,
    simulate_dense_core,
)
from ..arch.energy import EnergyModel
from ..arch.memory import TrafficLedger, bundle_storage_bytes, spike_payload_bytes
from ..arch.report import EnergyBreakdown, LayerReport
from ..arch.sparse_core import simulate_sparse_core, sparse_core_cycles
from ..arch.spike_generator import simulate_spike_generator
from ..arch.stratifier import (
    StratifiedWorkload,
    balanced_theta,
    stratify,
    theta_for_dense_fraction,
)
from ..bundles import TTBGrid, as_grid
from ..model.trace import LayerRecord
from .ir import TileOp

__all__ = [
    "lower_attention_layer",
    "lower_matmul_layer",
    "plan_stratification",
    "stage_ops",
    "unstratified_workload",
]


def _dense_statistics(grid: TTBGrid, config: BishopConfig, skip_inactive: bool):
    """The layer's per-feature ``(tile_steps, row_steps)``."""
    active = grid.active.reshape(grid.n_bt * grid.n_bn, grid.features)
    return dense_tile_activity(active, config, skip_inactive)


def _plan(grid, theta, config, statistics, theta_candidates=0):
    """The Algorithm-1 plan at ``theta``, carrying the layer's statistics."""
    tile_steps, row_steps = statistics
    return replace(
        stratify(grid, config.bundle_spec, theta, counts=grid.active_per_feature),
        tile_steps=tile_steps, row_steps=row_steps,
        theta_candidates=theta_candidates,
    )


def unstratified_workload(
    spikes: "np.ndarray | TTBGrid",
    config: BishopConfig,
    skip_inactive: bool = True,
) -> StratifiedWorkload:
    """Every feature on the dense core (stratify pass off): the plan at
    θ_s = -1.  ``skip_inactive`` is the bundle-packing decision."""
    grid = as_grid(spikes, config.bundle_spec)
    return _plan(grid, -1.0, config, _dense_statistics(grid, config, skip_inactive))


def plan_stratification(
    spikes: "np.ndarray | TTBGrid",
    out_features: int,
    config: BishopConfig,
    skip_inactive: bool = True,
) -> StratifiedWorkload:
    """Apply the configured θ_s policy to one layer's input spikes.

    ``skip_inactive`` is the bundle-packing decision the dense core's
    statistics assume.  ``spikes`` is the layer's grid, or an array to
    build it from.  The plan carries per-feature statistics of it:
    ``counts`` (``active_per_feature``; a partition's active-pair count is
    their sum) and the :func:`dense_tile_activity` steps (a dense
    partition's steps are their sums).  Every balanced-θ candidate is
    scored in O(1) from ``int64`` prefix tables of ``counts`` and
    ``tile_steps`` indexed by count value, built once per layer; the
    scores equal the core simulators' cycles on the partitions exactly.
    The plan's ``theta_candidates`` counts the candidates scored.
    """
    spec = config.bundle_spec
    grid = as_grid(spikes, spec)
    counts = grid.active_per_feature
    statistics = _dense_statistics(grid, config, skip_inactive)
    scored = 0
    if config.stratify_theta is not None:
        theta = config.stratify_theta
    elif config.stratify_dense_fraction is not None:
        theta = theta_for_dense_fraction(
            grid, spec, config.stratify_dense_fraction, counts=counts
        )
    else:
        tile_steps = statistics[0]
        num_bundles = grid.n_bt * grid.n_bn
        # Entry v: features, Σ counts and Σ tile_steps over count <= v.
        features_le = np.bincount(counts)
        pairs_le = features_le * np.arange(len(features_le))
        steps_le = np.zeros_like(features_le)
        np.add.at(steps_le, counts, tile_steps)
        for table in (features_le, pairs_le, steps_le):
            np.cumsum(table, out=table)
        num_features, total_steps = len(counts), tile_steps.sum()

        def dense_cycles(workload: StratifiedWorkload) -> float:
            nonlocal scored
            scored += 1
            theta = int(workload.theta)
            return dense_core_cycles(
                total_steps - steps_le[theta],
                num_features - int(features_le[theta]),
                num_bundles,
                out_features,
                config,
            )

        def sparse_cycles(workload: StratifiedWorkload) -> float:
            return sparse_core_cycles(
                pairs_le[int(workload.theta)], out_features, config
            )

        theta = balanced_theta(
            grid, spec, dense_cycles, sparse_cycles, counts=counts
        )
    return _plan(grid, theta, config, statistics, scored)


def lower_matmul_layer(
    record: LayerRecord,
    workload: StratifiedWorkload,
    config: BishopConfig,
    energy: EnergyModel,
    skip_inactive: bool = True,
    grid: TTBGrid | None = None,
) -> LayerReport:
    """Lower one projection/MLP layer onto the dense+sparse cores.

    ``workload`` must come from :func:`plan_stratification` or
    :func:`unstratified_workload` on ``record.input_spikes`` with the same
    ``config`` and ``skip_inactive`` (the bundle-packing decision): the
    cores read its statistics summed over its dense and sparse features.
    ``grid`` is the layer's input grid when the caller already has it.
    """
    if workload.tile_steps is None:
        raise ValueError("plan the layer with plan_stratification first")
    spikes = record.input_spikes
    d_in, d_out = record.weight_shape
    timesteps, tokens, _ = spikes.shape
    if grid is None:
        grid = TTBGrid(spikes, config.bundle_spec)
    n_bt, n_bn = config.bundle_spec.grid_shape(timesteps, tokens)
    bundle_rows = n_bt * n_bn

    counts = workload.active_per_feature
    dense_features = workload.dense_features
    sparse_features = workload.sparse_features
    dense = simulate_dense_core(
        counts[dense_features].sum(), workload.tile_steps[dense_features].sum(),
        workload.row_steps[dense_features].sum(), len(dense_features),
        bundle_rows, d_out, config, skip_inactive,
    )
    sparse = simulate_sparse_core(
        counts[sparse_features].sum(), len(sparse_features), bundle_rows,
        d_out, config,
    )
    spike_gen = simulate_spike_generator(timesteps, tokens, d_out, config)

    core_cycles = max(dense.cycles, sparse.cycles)
    cycles = core_cycles + spike_gen.cycles
    compute_time = cycles / config.clock_hz

    traffic = TrafficLedger()
    traffic.merge(dense.traffic)
    traffic.merge(sparse.traffic)
    traffic.merge(spike_gen.traffic)

    # DRAM: weights streamed once (output-tiled when they exceed the
    # weight GLB); rows of completely silent input features are never
    # fetched (tag-gated — the structured pruning BSA amplifies).
    # Input/output spike tensors spill only past the ping-pong spike GLB.
    if skip_inactive:
        alive_features = int((counts > 0).sum())
    else:
        alive_features = d_in
    weight_bytes = alive_features * d_out * config.weight_bits / 8.0
    traffic.add("dram", "weight", weight_bytes)
    num_bundles = bundle_rows * len(counts)
    num_active_bundles = int(counts.sum())
    in_payload = bundle_storage_bytes(
        num_active_bundles, config.bundle_spec.volume, num_bundles
    )
    out_payload = spike_payload_bytes(timesteps * tokens, d_out)
    for payload in (in_payload, out_payload):
        spill = max(0.0, payload - config.spike_glb_bytes)
        if spill:
            traffic.add("dram", "activation", 2.0 * spill)  # write + read

    dram_time = traffic.dram_time_s(config.dram)
    latency = max(compute_time, dram_time)

    breakdown = EnergyBreakdown(
        compute_pj=dense.compute_energy_pj(energy) + sparse.compute_energy_pj(energy),
        memory_pj=traffic.energy_pj(energy),
        spike_gen_pj=spike_gen.compute_energy_pj(energy),
        static_pj=energy.static_pj(latency),
        memory_by_kind_pj=traffic.energy_by_kind_pj(energy),
    )
    total_ops = dense.sac_ops + sparse.sparse_ops
    peak = cycles * (config.dense_throughput + config.sparse_throughput)
    return LayerReport(
        block=record.block,
        kind=record.kind,
        phase=record.phase,
        cycles=cycles,
        latency_s=latency,
        energy=breakdown,
        traffic=traffic,
        unit_cycles={
            "dense": dense.cycles,
            "sparse": sparse.cycles,
            "spike_gen": spike_gen.cycles,
        },
        utilization=float(total_ops / peak) if peak else 0.0,
        notes={
            "theta_s": workload.theta,
            "dense_fraction": workload.dense_fraction,
            "dense_cycles": dense.cycles,
            "sparse_cycles": sparse.cycles,
            "sparse_active_pairs": sparse.active_pairs,
            "dram_time_s": dram_time,
            "compute_time_s": compute_time,
            "dense_tiles": dense.tiles,
            "sparse_tiles": sparse.waves,
            "sac_ops": dense.sac_ops,
            "sparse_ops": sparse.sparse_ops,
            "spike_count": float(grid.spike_count),
            "alive_features": float(alive_features),
            "bundle_occupancy": (
                num_active_bundles / num_bundles if num_bundles else 0.0
            ),
        },
    )


def lower_attention_layer(
    record: LayerRecord,
    config: BishopConfig,
    energy: EnergyModel,
    ecp: ECPConfig | None = None,
    grids: tuple[TTBGrid, TTBGrid, TTBGrid] | None = None,
    skip_inactive: bool = True,
) -> LayerReport:
    """Lower one SSA layer onto the attention core (Modes 1 + 2).

    ``grids`` are the merged-head Q, K and V grids of ``record`` when the
    caller already has them; otherwise they are built here.
    ``skip_inactive`` is the bundle-packing decision.
    """
    if grids is None:
        grids = tuple(
            TTBGrid(merge_attention_heads(x), config.bundle_spec)
            for x in (record.q, record.k, record.v)
        )
    result = simulate_attention_core(
        *grids, config, ecp=ecp, skip_inactive=skip_inactive
    )
    timesteps, heads, tokens, head_dim = record.q.shape
    features = heads * head_dim
    spike_gen = simulate_spike_generator(timesteps, tokens, features, config)

    cycles = result.cycles + spike_gen.cycles
    compute_time = cycles / config.clock_hz

    traffic = TrafficLedger()
    traffic.merge(result.traffic)
    traffic.merge(spike_gen.traffic)
    # Q/K/V/Y share the ping-pong spike GLBs, equally partitioned; the
    # binary Q/K/V tensors spill past their quarter share.  Y itself is
    # consumed by the spike generator in-flight and never spills.
    tensor_capacity = 2 * config.spike_glb_bytes / 4.0
    qkv_payload = spike_payload_bytes(timesteps * tokens, features)
    for _ in range(3):  # Q, K, V
        spill = max(0.0, qkv_payload - tensor_capacity)
        if spill:
            traffic.add("dram", "activation", spill)

    dram_time = traffic.dram_time_s(config.dram)
    latency = max(compute_time, dram_time)

    breakdown = EnergyBreakdown(
        compute_pj=result.compute_energy_pj(energy),
        memory_pj=traffic.energy_pj(energy),
        spike_gen_pj=spike_gen.compute_energy_pj(energy),
        static_pj=energy.static_pj(latency),
        memory_by_kind_pj=traffic.energy_by_kind_pj(energy),
    )
    return LayerReport(
        block=record.block,
        kind=record.kind,
        phase=record.phase,
        cycles=cycles,
        latency_s=latency,
        energy=breakdown,
        traffic=traffic,
        unit_cycles={
            "mode1": result.mode1_cycles,
            "mode2": result.mode2_cycles,
            "spike_gen": spike_gen.cycles,
        },
        utilization=result.utilization,
        notes={
            "q_keep_fraction": result.q_keep_fraction,
            "k_keep_fraction": result.k_keep_fraction,
            "score_compute_fraction": result.score_compute_fraction,
            "dram_time_s": dram_time,
            "compute_time_s": compute_time,
            "attention_tiles": result.tiles,
            "aac_ops": result.aac_ops,
            "sac_ops": result.sac_ops,
            "spike_count": float(sum(grid.spike_count for grid in grids)),
        },
    )


def stage_ops(
    report: LayerReport, config: BishopConfig, energy: EnergyModel
) -> tuple[tuple[TileOp, ...], dict]:
    """Decompose a lowered report into IR tile ops plus energy annotations.

    Each core op is the unit's cycles on the chip clock (the attention
    core's two modes together), each DRAM op one stream's transfer time,
    split into the (prefetchable) weight and the activation traffic.
    :meth:`~repro.compiler.ir.Stage.timing` reads the engine's task
    descriptor back from these ops and annotations.
    """
    clock = config.clock_hz
    units = report.unit_cycles
    if report.phase == "ATN":
        attention = units.get("mode1", 0.0) + units.get("mode2", 0.0)
        cores = {"attention_core": attention / clock}
    else:
        cores = {
            "dense_core": units.get("dense", 0.0) / clock,
            "sparse_core": units.get("sparse", 0.0) / clock,
        }
    ops = [
        TileOp(
            core, duration,
            tiles=int(report.notes.get(core.replace("_core", "_tiles"), 1)),
        )
        for core, duration in cores.items()
        if duration > 0
    ]
    spike_gen_s = units.get("spike_gen", 0.0) / clock
    if spike_gen_s > 0:
        ops.append(TileOp("spike_gen", spike_gen_s))
    weight_bytes = report.traffic.bytes(level="dram", kind="weight")
    activation_bytes = report.traffic.bytes(level="dram") - weight_bytes
    for tag, nbytes in (("weight", weight_bytes), ("activation", activation_bytes)):
        duration = config.dram.transfer_time_s(nbytes)
        if duration > 0:
            ops.append(TileOp("dram", duration, bytes=nbytes, tag=tag))

    annotations = {
        "dynamic_pj": report.energy.total_pj - report.energy.static_pj,
        "weight_dram_pj": energy.memory_pj("dram", weight_bytes),
        "energy_pj": report.energy.total_pj,
        "latency_s": report.latency_s,
        "cycles": report.cycles,
        "utilization": report.utilization,
        "dram_weight_bytes": weight_bytes,
        "dram_activation_bytes": activation_bytes,
    }
    # Numeric lowering notes (θ_s, keep fractions, op counts, …) become IR
    # annotations verbatim — they are what the passes decided.
    for key, value in report.notes.items():
        if isinstance(value, (int, float)):
            annotations.setdefault(key, float(value))
    return tuple(ops), annotations
