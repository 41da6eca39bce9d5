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

Grids: every function here takes a layer's spikes either as a ``(T, N, D)``
array or as its :class:`TTBGrid` — the ``bool`` grid whose activity mask is
an ``any`` over each bundle, built once from float input if need be.  The
compiler passes the grid it built for the layer, so planning never
re-bundles, and :meth:`StratifiedWorkload.split` cuts the dense and sparse
partitions out of that grid's activity mask as feature slices.

Closed-form scoring: the compiler (``compiler.lowering.plan_stratification``)
reduces the layer's one :class:`TTBGrid` to two per-feature vectors —
``counts`` (active bundles per feature) and ``tile_steps`` (dense
row-tiles in which the feature is active).  Every candidate partition is
cut from ``counts`` and scored from sums over those vectors through
``dense_core_cycles`` / ``sparse_core_cycles``, the same cycle formulas the
core simulators use, so no candidate re-bundles or re-simulates its slice.
The per-candidate loop that sliced the spikes and ran both simulators
survives as the test oracle (``tests/compiler/test_stratify_scorer.py``):
every score and the chosen θ_s are ``==`` to it.
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
    # The layer grid the plan was cut from (None for a plan made from an
    # array without counting), and how many balanced-θ candidates were
    # scored to choose ``theta``.
    grid: TTBGrid | None = field(default=None, repr=False, compare=False)
    theta_candidates: int = 0

    @property
    def num_features(self) -> int:
        return len(self.dense_features) + len(self.sparse_features)

    @property
    def dense_fraction(self) -> float:
        return len(self.dense_features) / self.num_features if self.num_features else 0.0

    def split(self, spikes: "np.ndarray | TTBGrid", weights: np.ndarray | None = None):
        """Partition ``spikes (T,N,D)`` (and optionally ``weights (D,O)``).

        Returns ``(x_dense, x_sparse)`` or, with weights,
        ``(x_dense, w_dense, x_sparse, w_sparse)``.  A :class:`TTBGrid`
        splits into two feature slices of its activity mask.
        """
        if isinstance(spikes, TTBGrid):
            x_dense = spikes.feature_slice(self.dense_features)
            x_sparse = spikes.feature_slice(self.sparse_features)
        else:
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


def _active_per_feature(spikes, spec, counts) -> np.ndarray:
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
    The grid passed as ``spikes`` (or built to count) is kept as
    ``workload.grid``.
    """
    grid = spikes if isinstance(spikes, TTBGrid) else None
    if counts is None:
        grid = as_grid(spikes, spec)
        counts = grid.active_per_feature
    dense = np.flatnonzero(counts > theta)
    sparse = np.flatnonzero(counts <= theta)
    return StratifiedWorkload(
        dense_features=dense,
        sparse_features=sparse,
        theta=float(theta),
        active_per_feature=counts,
        grid=grid,
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
    counts.
    """
    if not 0.0 <= dense_fraction <= 1.0:
        raise ValueError(f"dense_fraction must be in [0, 1], got {dense_fraction}")
    counts = _active_per_feature(spikes, spec, counts)
    if dense_fraction >= 1.0:
        return -1.0                      # every feature is > -1 → all dense
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
    strict minimum wins.  Candidates are quantiles of the per-feature
    activity distribution; every candidate partition is cut from ``counts``
    (computed from ``spikes`` if not given).
    """
    counts = _active_per_feature(spikes, spec, counts)
    unique = np.unique(counts)
    if len(unique) > num_candidates:
        quantiles = np.linspace(0.0, 1.0, num_candidates)
        candidates = np.unique(np.quantile(unique, quantiles, method="lower"))
    else:
        candidates = unique
    best_theta, best_time = float(candidates[0]), np.inf
    for theta in candidates:
        workload = stratify(spikes, spec, float(theta), counts=counts)
        bottleneck = max(dense_time_fn(workload), sparse_time_fn(workload))
        if bottleneck < best_time:
            best_time = bottleneck
            best_theta = float(theta)
    return best_theta
