"""The TTB stratifier — Algorithm 1 of the paper.

For each input feature ``i``, compare the number of active bundles in column
``i`` against the stratification threshold ``θ_s``: features with more active
bundles than ``θ_s`` are routed (with their weight rows) to the dense core,
the rest to the sparse core.  The feature-index buffers ``R_D``/``R_S``
realign the weight matrix, so ``X_D·W_D + X_S·W_S = X·W`` exactly — the
partition is a correctness-preserving reordering (property-tested).

``θ_s`` selection: Sec. 6.5.1 shows EDP is near-optimal when the threshold
approximately balances the two cores' latencies; :func:`balanced_theta`
implements that search, and :func:`theta_for_dense_fraction` realizes the
"targeted dense-to-sparse split ratio" strategies of Fig. 15.

Statistics, not slices: every function here takes a layer's spikes as a
``(T, N, D)`` array or as its :class:`TTBGrid` and reads only its
per-feature active-bundle counts.  The compiler passes its ingest grid and
its plans carry the layer's per-feature statistics, which the lowering
sums over ``R_D`` and ``R_S`` for the core models — no partition is copied.

Prefix-sum scoring: the partition at θ_s depends only on which count
values are ``<= θ_s``, so :func:`balanced_theta` does its O(D) work once
per layer — one histogram of ``counts`` (active bundles per feature) and
one stable ``argsort`` — and cuts every candidate partition as two views
of that order: ``order[:k]`` sparse, ``order[k:]`` dense, ``k`` the
cumulative histogram at θ_s.  Candidate partitions therefore reach the
scorers in count order, not index order (the same feature sets as
:func:`stratify`, whose plans stay in ascending index order).  The compiler
(``compiler.lowering.plan_stratification``) scores each candidate in O(1)
from ``int64`` tables indexed by count value — features, Σ``counts`` and
Σ``tile_steps`` (dense row-tiles each feature is active in) over the
features ``<= θ`` — through ``dense_core_cycles`` / ``sparse_core_cycles``,
the same cycle formulas the core simulators use.  The per-candidate loop
that sliced the spikes and ran both simulators survives as the test oracle
(``tests/compiler/test_stratify_scorer.py``): every score and the chosen
θ_s are ``==`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bundles import BundleSpec, TTBGrid, as_grid

__all__ = [
    "StratifiedWorkload",
    "stratify",
    "theta_for_dense_fraction",
    "balanced_theta",
]


@dataclass(frozen=True)
class StratifiedWorkload:
    """Output of Algorithm 1 for one layer's input spikes."""

    dense_features: np.ndarray   # R_D: indices routed to the dense core
    sparse_features: np.ndarray  # R_S: indices routed to the sparse core
    theta: float                 # θ_s actually applied
    active_per_feature: np.ndarray
    # The layer's dense-core steps per feature (``dense_tile_activity``;
    # set by the compiler's planners), and how many balanced-θ candidates
    # were scored to choose ``theta``.
    tile_steps: np.ndarray | None = field(default=None, repr=False, compare=False)
    row_steps: np.ndarray | None = field(default=None, repr=False, compare=False)
    theta_candidates: int = 0

    @property
    def num_features(self) -> int:
        return len(self.dense_features) + len(self.sparse_features)

    @property
    def dense_fraction(self) -> float:
        return len(self.dense_features) / self.num_features if self.num_features else 0.0

    def split(self, spikes: np.ndarray, weights: np.ndarray | None = None):
        """Partition ``spikes (T,N,D)`` (and optionally ``weights (D,O)``).

        Returns ``(x_dense, x_sparse)`` or, with weights,
        ``(x_dense, w_dense, x_sparse, w_sparse)``.
        """
        x_dense = spikes[:, :, self.dense_features]
        x_sparse = spikes[:, :, self.sparse_features]
        if weights is None:
            return x_dense, x_sparse
        return (
            x_dense,
            weights[self.dense_features, :],
            x_sparse,
            weights[self.sparse_features, :],
        )


def _counts(spikes, spec, counts) -> np.ndarray:
    """``counts``, or the active bundles per feature of ``spikes``."""
    return as_grid(spikes, spec).active_per_feature if counts is None else counts


def stratify(
    spikes: "np.ndarray | TTBGrid",
    spec: BundleSpec,
    theta: float,
    *,
    counts: np.ndarray | None = None,
) -> StratifiedWorkload:
    """Algorithm 1: route features with ``active_bundles > θ_s`` to the dense
    core, the rest to the sparse core.

    ``counts`` is the per-feature active-bundle count of ``spikes`` when the
    caller already has it (one grid per layer); otherwise it is computed.
    """
    counts = _counts(spikes, spec, counts)
    dense = np.flatnonzero(counts > theta)
    sparse = np.flatnonzero(counts <= theta)
    return StratifiedWorkload(
        dense_features=dense,
        sparse_features=sparse,
        theta=float(theta),
        active_per_feature=counts,
    )


def theta_for_dense_fraction(
    spikes: "np.ndarray | TTBGrid",
    spec: BundleSpec,
    dense_fraction: float,
    *,
    counts: np.ndarray | None = None,
) -> float:
    """θ_s that routes approximately ``dense_fraction`` of features dense.

    Implements the Fig.-15 "targeted dense-to-sparse split" strategies: the
    threshold is the (1 - fraction) quantile of the per-feature active-bundle
    counts.  A layer without features gets θ_s = 0 below a fraction of 1.
    """
    if not 0.0 <= dense_fraction <= 1.0:
        raise ValueError(f"dense_fraction must be in [0, 1], got {dense_fraction}")
    counts = _counts(spikes, spec, counts)
    if dense_fraction >= 1.0:
        return -1.0                      # every feature is > -1 → all dense
    if counts.size == 0:
        return 0.0
    if dense_fraction <= 0.0:
        return float(counts.max())       # nothing exceeds the max → all sparse
    return float(np.quantile(counts, 1.0 - dense_fraction, method="lower"))


def balanced_theta(
    spikes: "np.ndarray | TTBGrid",
    spec: BundleSpec,
    dense_time_fn,
    sparse_time_fn,
    num_candidates: int = 16,
    *,
    counts: np.ndarray | None = None,
) -> float:
    """Pick θ_s minimizing ``max(dense core time, sparse core time)``.

    ``dense_time_fn(workload)`` / ``sparse_time_fn(workload)`` are callbacks
    supplied by the accelerator so the search uses the real cycle models;
    each is called once per candidate, in ascending θ_s order, and the first
    strict minimum wins.  Candidates are the ``method="lower"`` quantiles of
    the distinct per-feature counts (``counts``: non-negative integers,
    computed from ``spikes`` if not given).  Each candidate's workload holds
    the :func:`stratify` feature sets as views of one stable count-order
    ``argsort`` — in count order, not index order — so a candidate costs
    O(1) beyond its callbacks.  A layer without features returns θ_s = 0
    without calling them.
    """
    counts = _counts(spikes, spec, counts)
    if counts.size == 0:
        return 0.0
    histogram = np.bincount(counts)
    unique = np.flatnonzero(histogram)
    below = np.cumsum(histogram)         # features with count <= value
    if len(unique) > num_candidates:
        # np.quantile(unique, linspace, method="lower") picks these indices
        quantiles = np.linspace(0.0, 1.0, num_candidates)
        picks = np.floor((len(unique) - 1) * quantiles).astype(np.intp)
        # The picks are nondecreasing: dropping a repeat of the previous
        # pick leaves the distinct ones in ascending order.
        picks = picks.tolist()
        candidates = unique[
            [pick for pick, prev in zip(picks, [-1, *picks]) if pick != prev]
        ]
    else:
        candidates = unique
    order = np.argsort(counts, kind="stable")
    best_theta, best_time = float(candidates[0]), np.inf
    for theta in candidates:
        k = below[theta]
        workload = StratifiedWorkload(
            dense_features=order[k:],
            sparse_features=order[:k],
            theta=float(theta),
            active_per_feature=counts,
        )
        bottleneck = max(dense_time_fn(workload), sparse_time_fn(workload))
        if bottleneck < best_time:
            best_time = bottleneck
            best_theta = float(theta)
    return best_theta
