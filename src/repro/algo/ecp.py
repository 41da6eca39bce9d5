"""Error-Constrained TT-Bundle Pruning (ECP) — paper Sec. 5.1, Fig. 7.

ECP removes whole bundle-rows from the spiking queries and keys before the
attention product.  Because Q and K are binary, the attention scores obey a
hard bound that ANN attention lacks:

    For bundle-row (bt, bn) of Q, let n_ab = number of active bundles across
    all D features.  Every token-time point (t, i) inside the row has at
    most n_ab active features, so every score S[t, i, j] = Σ_d Q[t,i,d]·K[t,j,d]
    satisfies S[t, i, j] ≤ n_ab.

Pruning rows with ``n_ab < θ_p,Q`` therefore changes any score by strictly
less than ``θ_p,Q`` — the "error-constrained" guarantee (property-tested in
``tests/algo/test_ecp.py``).  The same argument applied to K bounds pruned
columns by ``θ_p,K``.  Pruning compounds (Fig. 7): removed K rows make the
matching V rows and S columns dead, and removed Q rows kill S rows and Y
writebacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bundles import BundleSpec, TTBGrid, as_grid

__all__ = [
    "ECPConfig",
    "ECPReport",
    "bundle_row_keep_mask",
    "expand_row_mask",
    "ecp_plan",
    "ecp_prune_qk",
    "ECPAttentionPruner",
    "attach_ecp",
    "detach_ecp",
]


@dataclass(frozen=True)
class ECPConfig:
    """Pruning thresholds (paper: 6 for static models, 10 for DVS-Gesture)."""

    theta_q: float
    theta_k: float
    spec: BundleSpec

    def __post_init__(self) -> None:
        if self.theta_q < 0 or self.theta_k < 0:
            raise ValueError("pruning thresholds must be non-negative")


@dataclass(frozen=True)
class ECPReport:
    """Outcome of pruning one attention layer's Q/K tensors."""

    q_row_keep: np.ndarray        # (n_bt, n_bn) bool
    k_row_keep: np.ndarray        # (n_bt, n_bn) bool
    q_token_keep_fraction: float  # surviving token-time slots in Q
    k_token_keep_fraction: float
    theta_q: float
    theta_k: float

    @property
    def score_compute_fraction(self) -> float:
        """Surviving fraction of the S = Q·K^T computation (Fig. 7's
        compounding: kept rows × kept columns)."""
        return self.q_token_keep_fraction * self.k_token_keep_fraction

    @property
    def v_access_fraction(self) -> float:
        """V rows that must still be read (dead S columns skip their V rows)."""
        return self.k_token_keep_fraction

    @property
    def y_writeback_fraction(self) -> float:
        """Y rows still written back (pruned Q rows produce no output)."""
        return self.q_token_keep_fraction

    @property
    def error_bound(self) -> float:
        """Certified per-score error bound: every pruned score was strictly
        below the threshold that pruned it."""
        return max(self.theta_q, self.theta_k)


def bundle_row_keep_mask(
    spikes: "np.ndarray | TTBGrid", theta: float, spec: BundleSpec
) -> np.ndarray:
    """Keep mask over bundle rows ``(n_bt, n_bn)`` of a ``(T, N, D)`` tensor
    (or of its :class:`TTBGrid` at ``spec``).

    A row is pruned when its active-bundle count across features is strictly
    below ``theta`` — guaranteeing all its attention scores are ``< theta``.
    """
    return as_grid(spikes, spec).active_per_bundle_row >= theta


def expand_row_mask(
    row_mask: np.ndarray, spec: BundleSpec, timesteps: int, tokens: int
) -> np.ndarray:
    """Expand a ``(n_bt, n_bn)`` bundle-row mask to token-time ``(T, N)``."""
    per_time = np.repeat(row_mask, spec.bs_t, axis=0)[:timesteps]
    return np.repeat(per_time, spec.bs_n, axis=1)[:, :tokens]


def _plan(q, k, config: ECPConfig) -> tuple[ECPReport, np.ndarray, np.ndarray]:
    """``(report, Q token mask, K token mask)`` of one Q/K pair."""
    if q.shape[:2] != k.shape[:2]:
        raise ValueError(f"Q/K token grids differ: {q.shape} vs {k.shape}")
    timesteps, tokens = q.shape[:2]
    q_rows = bundle_row_keep_mask(q, config.theta_q, config.spec)
    k_rows = bundle_row_keep_mask(k, config.theta_k, config.spec)
    q_mask = expand_row_mask(q_rows, config.spec, timesteps, tokens)
    k_mask = expand_row_mask(k_rows, config.spec, timesteps, tokens)
    report = ECPReport(
        q_row_keep=q_rows,
        k_row_keep=k_rows,
        q_token_keep_fraction=float(q_mask.mean()),
        k_token_keep_fraction=float(k_mask.mean()),
        theta_q=config.theta_q,
        theta_k=config.theta_k,
    )
    return report, q_mask, k_mask


def ecp_plan(
    q: "np.ndarray | TTBGrid", k: "np.ndarray | TTBGrid", config: ECPConfig
) -> ECPReport:
    """The :class:`ECPReport` of full-D binary Q and K ``(T, N, D)`` tensors
    (or their grids at ``config.spec``), without the pruned copies."""
    return _plan(q, k, config)[0]


def ecp_prune_qk(
    q: np.ndarray, k: np.ndarray, config: ECPConfig
) -> tuple[np.ndarray, np.ndarray, ECPReport]:
    """Prune full-D binary Q and K tensors of shape ``(T, N, D)``.

    Returns pruned copies plus the :class:`ECPReport`.  Pruning zeroes all
    features of every token-time slot inside a pruned bundle row, which on
    the accelerator means the bundle is never fetched or scheduled.
    """
    report, q_mask, k_mask = _plan(q, k, config)
    return q * q_mask[:, :, None], k * k_mask[:, :, None], report


class ECPAttentionPruner:
    """Stateful pruner attached to an SSA module (``ssa.ecp``).

    During forward it converts live batched Q/K tensors ``(T, B, N, D)`` into
    multiplicative token masks; it also remembers the last reports so
    harnesses can read pruning fractions after an inference.
    """

    def __init__(self, config: ECPConfig):
        self.config = config
        self.last_reports: list[ECPReport] = []

    def token_masks(
        self, q_data: np.ndarray, k_data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masks of shape ``(T, B, N)`` — 1 keeps, 0 prunes a token-time slot."""
        timesteps, batch, tokens, _ = q_data.shape
        mask_q = np.empty((timesteps, batch, tokens), dtype=np.float64)
        mask_k = np.empty_like(mask_q)
        self.last_reports = []
        for b in range(batch):
            q_rows = bundle_row_keep_mask(q_data[:, b], self.config.theta_q, self.config.spec)
            k_rows = bundle_row_keep_mask(k_data[:, b], self.config.theta_k, self.config.spec)
            mq = expand_row_mask(q_rows, self.config.spec, timesteps, tokens)
            mk = expand_row_mask(k_rows, self.config.spec, timesteps, tokens)
            mask_q[:, b] = mq
            mask_k[:, b] = mk
            self.last_reports.append(
                ECPReport(
                    q_row_keep=q_rows,
                    k_row_keep=k_rows,
                    q_token_keep_fraction=float(mq.mean()),
                    k_token_keep_fraction=float(mk.mean()),
                    theta_q=self.config.theta_q,
                    theta_k=self.config.theta_k,
                )
            )
        return mask_q, mask_k


def attach_ecp(model, config: ECPConfig) -> list[ECPAttentionPruner]:
    """Attach an :class:`ECPAttentionPruner` to every SSA block of ``model``.

    Used both for ECP-aware training (masks act as straight-through constants)
    and for inference-time pruning; returns the pruners for inspection.
    """
    pruners = []
    for ssa in model.attention_modules():
        pruner = ECPAttentionPruner(config)
        ssa.ecp = pruner
        pruners.append(pruner)
    return pruners


def detach_ecp(model) -> None:
    """Remove ECP pruning from every SSA block."""
    for ssa in model.attention_modules():
        ssa.ecp = None
