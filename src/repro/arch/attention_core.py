"""TT-Bundle Attention Core — reconfigurable AAC/SAC systolic array (Sec. 5.5).

Two-step spiking attention on binary Q/K/V:

* **Mode 1** (And-ACcumulate, S-stationary): Q bundles flow left→right, K
  tokens stream top→bottom; each PE ANDs binary Q/K bits and accumulates the
  attention score ``S`` in a local register.  K-tokens are reused intra- and
  inter-Q-bundle.
* **Mode 2** (Select-ACcumulate, S-stationary): ``S`` stays in the PE
  registers — the multi-bit scores never travel — while binary ``V`` streams
  and selects scores into ``Y`` partial sums; ``Y`` is rescaled by the
  power-of-two factor ``s`` (a shifter) and fed to the spike generator.

ECP (Sec. 5.1) runs ahead of the core: pruned Q bundle-rows and K rows are
never fetched nor scheduled, so compute shrinks by the *product* of the two
surviving fractions, V fetches shrink with K, and Y writebacks with Q.

The model reads one :class:`TTBGrid` per merged-head Q, K and V tensor.
Every keep mask — ECP's and the activity skip's — is a bundle-row mask, so
the surviving tensors' active bundles are the grid's ``active`` restricted
to the kept rows: no masked copy is re-bundled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algo import ECPConfig, ecp_plan, expand_row_mask
from ..bundles import TTBGrid, as_grid
from .config import BishopConfig
from .energy import EnergyModel
from .memory import TrafficLedger, bundle_storage_bytes

__all__ = ["AttentionCoreResult", "simulate_attention_core", "merge_attention_heads"]


def merge_attention_heads(per_head: np.ndarray) -> np.ndarray:
    """``(T, H, N, d)`` → full-feature ``(T, N, H·d)`` (concat of heads)."""
    t, h, n, d = per_head.shape
    return per_head.transpose(0, 2, 1, 3).reshape(t, n, h * d)


@dataclass(frozen=True)
class AttentionCoreResult:
    """Outcome of one spiking self-attention layer on the attention core."""

    mode1_cycles: float
    mode2_cycles: float
    aac_ops: float                 # Mode-1 AND-accumulates
    sac_ops: float                 # Mode-2 select-accumulates
    q_keep_fraction: float         # after ECP ∧ activity skipping
    k_keep_fraction: float
    utilization: float
    traffic: TrafficLedger
    tiles: int = 0                 # Q-row × K-column tiles — engine acquire grain

    @property
    def cycles(self) -> float:
        return self.mode1_cycles + self.mode2_cycles

    def time_s(self, config: BishopConfig) -> float:
        return self.cycles / config.clock_hz

    def compute_energy_pj(self, energy: EnergyModel) -> float:
        return energy.compute_pj("aac", self.aac_ops) + energy.compute_pj(
            "sac", self.sac_ops
        )

    @property
    def score_compute_fraction(self) -> float:
        """Surviving share of the dense S computation (the Fig.-7 compounding)."""
        return self.q_keep_fraction * self.k_keep_fraction


def _surviving_rows(
    grid: TTBGrid, skip_inactive: bool, keep_rows: np.ndarray | None
) -> np.ndarray:
    """Bundle-row keep mask ``(n_bt, n_bn)``: ECP survivors ∧ bundle activity."""
    if skip_inactive:
        rows = grid.active_per_bundle_row > 0
    else:
        rows = np.ones((grid.n_bt, grid.n_bn), dtype=bool)
    return rows if keep_rows is None else rows & keep_rows


def _qkv_grid(x: "np.ndarray | TTBGrid", spec) -> TTBGrid:
    """The merged-head grid of a ``(T, H, N, d)`` tensor (or the grid itself)."""
    return as_grid(x if isinstance(x, TTBGrid) else merge_attention_heads(x), spec)


def simulate_attention_core(
    q: "np.ndarray | TTBGrid",
    k: "np.ndarray | TTBGrid",
    v: "np.ndarray | TTBGrid",
    config: BishopConfig,
    ecp: ECPConfig | None = None,
    skip_inactive: bool = True,
) -> AttentionCoreResult:
    """Simulate one SSA layer: ``q, k, v`` are binary ``(T, H, N, d)``
    tensors, or each one's merged-head ``(T, N, H·d)`` :class:`TTBGrid`
    (the compiler passes the grids it built for the stage).

    With ``ecp`` set, Q/K bundle-rows below the thresholds are pruned before
    scheduling (the certified-error path); without it, only intrinsically
    inactive bundles are skipped (when ``skip_inactive``, the
    bundle-packing decision, is on).
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
    spec = config.bundle_spec
    q_grid, k_grid, v_grid = (_qkv_grid(x, spec) for x in (q, k, v))
    t, n, features = q_grid.shape
    traffic = TrafficLedger()

    if ecp is not None:
        report = ecp_plan(q_grid, k_grid, ecp)
        q_keep_rows, k_keep_rows = report.q_row_keep, report.k_row_keep
    else:
        q_keep_rows = k_keep_rows = None

    q_rows = _surviving_rows(q_grid, skip_inactive, q_keep_rows)  # (n_bt, n_bn)
    k_rows = _surviving_rows(k_grid, skip_inactive, k_keep_rows)
    q_mask = expand_row_mask(q_rows, spec, t, n)            # (T, N)
    k_mask = expand_row_mask(k_rows, spec, t, n)

    q_tokens_per_t = q_mask.sum(axis=1).astype(np.float64)
    k_tokens_per_t = k_mask.sum(axis=1).astype(np.float64)
    pair_count = float((q_tokens_per_t * k_tokens_per_t).sum())  # Σ_t N_q(t)·N_k(t)

    # Mode 1: S[t,i,j] accumulated over all features with AND-accumulate.
    aac_ops = pair_count * features
    # Mode 2: Y[t,i,:] = Σ_j S[t,i,j]·V[t,j,:] — same op count, SAC flavour.
    sac_ops = pair_count * features

    effective = config.attn_throughput * config.attn_utilization
    mode1_cycles = aac_ops / effective + config.pipeline_fill_cycles
    mode2_cycles = sac_ops / effective + config.pipeline_fill_cycles

    q_keep = float(q_mask.mean())
    k_keep = float(k_mask.mean())

    # ---- traffic ---------------------------------------------------------
    # Surviving active bundles: each grid's per-row counts over kept rows
    # (V rows die with their K rows).
    q_bytes, k_bytes, v_bytes = (
        bundle_storage_bytes(
            int(grid.active_per_bundle_row[rows].sum()), spec.volume, grid.num_bundles
        )
        for grid, rows in ((q_grid, q_rows), (k_grid, k_rows), (v_grid, k_rows))
    )

    # Tiling: surviving Q bundle-rows across PE rows, K tokens across columns.
    q_rows_surviving = max(
        1.0, float(q_mask.any(axis=0).sum()) / spec.bs_n
    )
    k_col_tiles = max(1.0, float(np.ceil(k_tokens_per_t.max() / config.attn_cols)) if n else 1.0)
    q_row_tiles = max(1.0, np.ceil(q_rows_surviving / config.attn_rows))

    # Q re-streamed once per K column tile; K/V reused across Q tiles
    # (intra/inter-Q-bundle K-reuse, intra/inter-S-bundle V-reuse).
    traffic.add("glb", "activation", q_bytes * k_col_tiles)
    traffic.add("glb", "activation", k_bytes * q_row_tiles)
    traffic.add("glb", "activation", v_bytes * q_row_tiles)

    # S never leaves the PEs (score-stationary): local register traffic only.
    s_entries = pair_count
    traffic.add("spad", "score", s_entries * config.score_bits / 8.0)
    # Y streams through the shifter straight into the spike generator — it is
    # never stored wholesale, so it costs output-buffer traffic only.
    y_bytes = q_keep * t * n * features * config.accumulator_bits / 8.0
    traffic.add("spad", "output", y_bytes)

    utilization = (
        (aac_ops + sac_ops)
        / ((mode1_cycles + mode2_cycles) * config.attn_throughput)
        if (mode1_cycles + mode2_cycles) > 0
        else 0.0
    )

    return AttentionCoreResult(
        mode1_cycles=mode1_cycles,
        mode2_cycles=mode2_cycles,
        aac_ops=aac_ops,
        sac_ops=sac_ops,
        q_keep_fraction=q_keep,
        k_keep_fraction=k_keep,
        utilization=float(utilization),
        traffic=traffic,
        tiles=int(q_row_tiles * k_col_tiles),
    )
