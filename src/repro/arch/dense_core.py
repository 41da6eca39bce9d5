"""TT-Bundle Dense Core — output-stationary systolic array (Sec. 5.4).

Organization (Fig. 9): ``dense_rows`` TT-bundles × ``dense_cols`` output
features, 512 PEs total.  Spiking bundles flow top-to-bottom, coordinated
weights flow left-to-right, partial sums stay in PE registers
(output-stationary).  Each PE executes Select-ACcumulate (SAC) operations —
one MUX + one accumulator — on up to ``spikes_per_cycle`` spikes per cycle.

Weight reuse:
* intra-bundle — one weight serves all ``BS_t × BS_n`` spikes of a bundle;
* inter-bundle — the same weight row serves all bundles in a row-tile, and
  is re-streamed once per bundle-row tile (``⌈B/rows⌉`` passes per layer),
  instead of once per token-time as in conventional spike-serial dataflows.

Cycle model: per (bundle-row-tile × output-tile), the array streams the
layer's input features; each step costs ``⌈volume/spikes_per_cycle⌉`` cycles
for rows whose bundle is active, and is skipped (tag lookahead) otherwise.
Rows advance in lockstep, so a feature step costs the maximum over the
tile's rows — fully-inactive feature columns vanish, partially-active ones
do not (this is why stratification matters: mixed-density workloads stall
the dense array).

The model reads integer statistics, not spikes: the compiler reduces a
layer once to per-feature counts (:func:`dense_tile_activity`) and passes
:func:`simulate_dense_core` their sums over the dense partition ``R_D``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bundles import BundleSpec
from ..bundles.ttb import count_active
from .config import BishopConfig
from .energy import EnergyModel
from .memory import TrafficLedger, bundle_storage_bytes

__all__ = [
    "DenseCoreResult",
    "dense_core_cycles",
    "dense_tile_activity",
    "psum_chunking",
    "simulate_dense_core",
]


@dataclass(frozen=True)
class DenseCoreResult:
    """Cycle/op/traffic outcome of one layer's dense partition."""

    cycles: float
    sac_ops: float
    idle_slots: float
    utilization: float
    traffic: TrafficLedger
    tiles: int = 0     # bundle-row × output tiles — the engine's acquire grain

    def time_s(self, config: BishopConfig) -> float:
        return self.cycles / config.clock_hz

    def compute_energy_pj(self, energy: EnergyModel) -> float:
        """Active select-accumulates plus clocked-but-gated slot overhead —
        the lockstep array pays a toll for every stall it forces."""
        return energy.compute_pj("sac", self.sac_ops) + energy.compute_pj(
            "idle", self.idle_slots
        )


def psum_chunking(config: BishopConfig) -> tuple[int, int]:
    """``(chunks, volume_cycles)`` of one bundle on a PE or TTB unit.

    A bundle larger than the psum register file is processed in chunks,
    re-streaming the weights once per chunk (Fig.-16 penalty); each chunk
    takes ``⌈chunk volume / spikes_per_cycle⌉`` cycles per weight.
    """
    volume = config.bundle_spec.volume
    chunks = -(-volume // config.psum_regs_per_pe)
    chunk_volume = -(-volume // chunks)
    return chunks, -(-chunk_volume // config.spikes_per_cycle) * chunks


def dense_tile_activity(
    active: np.ndarray, config: BishopConfig, skip_inactive: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature ``(tile_steps, row_steps)`` of the array's lockstep steps.

    ``active`` is the ``(bundle rows, D)`` activity mask.  A feature step is
    needed in a bundle-row tile iff any row of the tile is active for that
    feature (the slowest row paces the column); without inactive-bundle
    skipping every step is taken.  ``tile_steps[d]`` counts the tiles in
    which feature ``d`` steps and ``row_steps[d]`` the bundle rows those
    steps occupy (every row of a tile steps; the last tile may be short).
    Both are ``int64``, so a partition's statistics are exact sums; the
    tile counts accumulate in the narrow width of
    :func:`~repro.bundles.ttb.count_active`.
    """
    num_bundles, d_in = active.shape
    rows = config.dense_rows
    row_tiles = -(-num_bundles // rows)
    if not skip_inactive:
        return (
            np.full(d_in, row_tiles, dtype=np.int64),
            np.full(d_in, num_bundles, dtype=np.int64),
        )
    padded = np.zeros((row_tiles * rows, d_in), dtype=bool)
    padded[:num_bundles] = active
    activity = padded.reshape(row_tiles, rows, d_in).any(axis=1)
    tile_steps = count_active(activity, 0)
    # Every tile steps all its rows; the last tile is short by `missing`.
    row_steps = tile_steps * rows
    missing = row_tiles * rows - num_bundles
    if missing:
        row_steps -= missing * activity[-1]
    return tile_steps, row_steps


def dense_core_cycles(
    tile_steps: "float | np.ndarray",
    num_features: "int | np.ndarray",
    num_bundles: int,
    out_features: int,
    config: BishopConfig,
) -> "float | np.ndarray":
    """Dense-core cycles from the layer's statistics.

    ``tile_steps`` is the number of (bundle-row tile, feature) steps the
    array takes — the sum of :func:`dense_tile_activity`; ``num_bundles``
    is the number of bundle rows (time × token bundle slots).  Every
    output tile replays the steps and pays the pipeline fill once per
    (row tile × output tile).

    Scalars give a ``float``.  Arrays of ``tile_steps`` and
    ``num_features`` (one entry per partition) give the ``float64`` array
    of the same element-wise operations, so each entry is ``==`` the
    scalar call on it.
    """
    _, volume_cycles = psum_chunking(config)
    row_tiles = -(-num_bundles // config.dense_rows)
    col_tiles = -(-out_features // config.dense_cols)
    cycles = (
        _float64(tile_steps) * volume_cycles * col_tiles
        + (row_tiles * col_tiles) * config.pipeline_fill_cycles
    )
    # No features, no cycles (no outputs, col_tiles = 0: the sum reads 0).
    if isinstance(cycles, np.ndarray):
        return np.where(num_features == 0, 0.0, cycles)
    return cycles if num_features else 0.0


def _float64(value: "float | np.ndarray") -> "float | np.ndarray":
    """A cycle formula's operand: ``float`` or a ``float64`` array."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    return float(value)


def simulate_dense_core(
    active_pairs: int,
    tile_steps: int,
    row_steps: int,
    num_features: int,
    num_bundles: int,
    out_features: int,
    config: BishopConfig,
    skip_inactive: bool = True,
) -> DenseCoreResult:
    """Simulate the dense core on one ``(T, N, D_dense)`` partition.

    The partition is given by its statistics: ``active_pairs`` active
    (bundle, feature) pairs, the sums of :func:`dense_tile_activity`'s
    ``tile_steps`` and ``row_steps`` over its ``num_features`` features,
    and ``num_bundles`` bundle rows (time × token bundle slots).
    ``skip_inactive`` is the bundle-packing decision: off, inactive
    bundles are processed like active ones.  Returns cycles, SAC
    operation count, utilization, and the GLB/spad traffic the pass
    generates.
    """
    traffic = TrafficLedger()
    if num_features == 0 or out_features == 0:
        return DenseCoreResult(0.0, 0.0, 0.0, 0.0, traffic)

    spec: BundleSpec = config.bundle_spec
    chunks, volume_cycles = psum_chunking(config)
    row_tiles = -(-num_bundles // config.dense_rows)
    col_tiles = -(-out_features // config.dense_cols)

    # --- cycles ---------------------------------------------------------
    total_needed_steps = float(tile_steps)
    cycles = dense_core_cycles(
        total_needed_steps, num_features, num_bundles, out_features, config
    )
    # Every step occupies all lanes of every row in the tile.
    occupied_slots = (
        float(row_steps)
        * volume_cycles * config.spikes_per_cycle
        * col_tiles * config.dense_cols
    )

    # --- operations (energy) ---------------------------------------------
    # Each active (bundle, feature) pair costs `volume` SAC lane-slots per
    # output feature; gated slots in occupied lockstep steps still pay the
    # clocked-idle toll (registers toggle, clock tree runs).
    pair_slots = num_bundles * num_features
    active_pairs = float(active_pairs) if skip_inactive else float(pair_slots)
    sac_ops = active_pairs * spec.volume * out_features
    idle_slots = max(0.0, occupied_slots - sac_ops)

    # --- utilization ------------------------------------------------------
    peak_ops = cycles * config.dense_throughput
    utilization = float(sac_ops / peak_ops) if peak_ops else 0.0

    # --- traffic ----------------------------------------------------------
    # Weights stream through the array once per bundle-row tile (and once
    # per psum-register chunk), but only for input features some bundle in
    # the tile actually needs — the activity tags gate weight fetches as
    # well as compute (the structured weight skipping BSA amplifies).
    weight_bytes = (
        total_needed_steps * chunks * out_features * config.weight_bits / 8.0
    )
    traffic.add("glb", "weight", weight_bytes)
    # Activation bundles are re-broadcast once per output tile; only active
    # payloads move (plus the tag bitmap).
    act_bytes = bundle_storage_bytes(active_pairs, spec.volume, pair_slots)
    traffic.add("glb", "activation", act_bytes * col_tiles)
    # Output partial sums drain to the output buffer once per tile pass.
    psum_bytes = num_bundles * spec.volume * out_features * config.accumulator_bits / 8.0
    traffic.add("spad", "output", psum_bytes)

    return DenseCoreResult(
        cycles=cycles,
        sac_ops=sac_ops,
        idle_slots=idle_slots,
        utilization=utilization,
        traffic=traffic,
        tiles=row_tiles * col_tiles,
    )
