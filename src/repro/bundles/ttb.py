"""Token-Time Bundles (TTBs) — the paper's fundamental unit of work (Sec. 3).

A TTB packs the binary spiking activity of ``BS_n`` tokens across ``BS_t``
time points for one feature.  A spike tensor of shape ``(T, N, D)`` therefore
splits into ``ceil(T/BS_t) × ceil(N/BS_n) × D`` bundles.  A bundle is *active*
if it contains at least one spike (its Eq.-9 tag, the L0 norm of its
contents, is nonzero); inactive bundles are skipped wholesale by the
accelerator dataflow.

Storage: spikes are binary by construction, so a :class:`TTBGrid` holds
them as ``bool``.  ``bool`` input is kept as is — no copy, no check; float
or integer 0/1 input (the training path's tensors, hand-written tests) is
checked and converted once.  Bundle activity is an ``any`` reduction over
each bundle's ``BS_t × BS_n`` slots; the Eq.-9 tags are integer counts,
computed only when asked.  One grid per tensor serves every consumer:
planning and lowering read its per-feature statistics, never a copy.

Counts of active bundles (:func:`count_active`) accumulate in ``uint16``
while the summed length — the bundle rows of a grid, the row tiles of the
dense core — is under 65,536, so no count can reach the width's limit,
and in ``int64`` otherwise; they are returned as ``int64`` either way, so
sums of them are exact.  Ragged grids are zero-padded into one fresh
array by a slice copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BundleSpec", "TTBGrid", "as_grid", "count_active", "pad_to_bundle_grid"]


@dataclass(frozen=True)
class BundleSpec:
    """Bundle volume: ``bs_t`` time points × ``bs_n`` tokens (Fig. 4).

    The paper's design-space exploration (Fig. 16) sweeps this volume; values
    of 4-8 total are reported near-optimal.
    """

    bs_t: int = 2
    bs_n: int = 4

    def __post_init__(self) -> None:
        if self.bs_t < 1 or self.bs_n < 1:
            raise ValueError(f"bundle sizes must be >= 1, got ({self.bs_t}, {self.bs_n})")

    @property
    def volume(self) -> int:
        """Spikes per bundle per feature."""
        return self.bs_t * self.bs_n

    def grid_shape(self, timesteps: int, tokens: int) -> tuple[int, int]:
        """Number of (time, token) bundle slots covering ``(T, N)``."""
        return (-(-timesteps // self.bs_t), -(-tokens // self.bs_n))


def pad_to_bundle_grid(spikes: np.ndarray, spec: BundleSpec) -> np.ndarray:
    """Zero-pad ``(T, N, D)`` so T, N are multiples of the bundle sizes.

    Padding with zeros never creates active bundles, so all tag statistics
    are invariant under this operation.
    """
    t, n, d = spikes.shape
    bt, bn = spec.grid_shape(t, n)
    shape = (bt * spec.bs_t, bn * spec.bs_n, d)
    if shape == spikes.shape:
        return spikes
    padded = np.zeros(shape, dtype=spikes.dtype)
    padded[:t, :n] = spikes
    return padded


def count_active(active: np.ndarray, axis: int | tuple[int, ...]) -> np.ndarray:
    """``active.sum(axis)`` as ``int64``: a count of ``True`` entries.

    The sum accumulates in ``uint16`` while the summed length is under
    65,536 (no count can overflow it, and the narrow accumulator is
    several times faster than ``int64`` on ``bool``), else in ``int64``;
    either way the counts are the same integers.
    """
    axes = (axis,) if isinstance(axis, int) else axis
    length = math.prod(active.shape[a] for a in axes)
    dtype = np.uint16 if length < 2**16 else np.int64
    return active.sum(axis=axis, dtype=dtype).astype(np.int64, copy=False)


class TTBGrid:
    """The bundle decomposition of one spike tensor ``(T, N, D)``.

    Exposes the Eq.-9 activity tags, the derived active-bundle masks, and the
    counts used by the stratifier (per-feature) and by ECP (per bundle-row).

    Parameters
    ----------
    spikes:
        Binary array of shape ``(T, N, D)`` — time × tokens × features.
        ``bool`` arrays are kept without a copy; other dtypes must hold only
        0/1 and are converted to ``bool`` once.  Batched inputs should
        construct one grid per sample (the accelerator processes one
        inference at a time, as in the paper's evaluation).
    spec:
        The bundle volume.
    """

    def __init__(self, spikes: np.ndarray, spec: BundleSpec):
        spikes = np.asarray(spikes)
        if spikes.ndim != 3:
            raise ValueError(f"expected (T, N, D) spikes, got shape {spikes.shape}")
        if spikes.dtype != np.bool_:
            binary = spikes.astype(bool)
            if not (binary == spikes).all():
                raise ValueError("spike tensor must be binary")
            spikes = binary
        self.spec = spec
        self.timesteps, self.tokens, self.features = spikes.shape
        self.spikes = spikes
        self.n_bt, self.n_bn = spec.grid_shape(self.timesteps, self.tokens)

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(T, N, D)`` of the bundled tensor."""
        return (self.timesteps, self.tokens, self.features)

    # ------------------------------------------------------------------
    # Tags and masks
    # ------------------------------------------------------------------
    @cached_property
    def bundled(self) -> np.ndarray:
        """Padded view ``(n_bt, bs_t, n_bn, bs_n, D)`` of the spike tensor."""
        padded = pad_to_bundle_grid(self.spikes, self.spec)
        return padded.reshape(
            self.n_bt, self.spec.bs_t, self.n_bn, self.spec.bs_n, self.features
        )

    @cached_property
    def tags(self) -> np.ndarray:
        """Eq. 9 activity tags ``Z[bt, bn, d]``: spikes (L0 norm) per bundle,
        as integer counts."""
        return self.bundled.sum(axis=(1, 3), dtype=np.int64)

    @cached_property
    def active(self) -> np.ndarray:
        """Boolean mask of active bundles, shape ``(n_bt, n_bn, D)``."""
        return self.bundled.any(axis=(1, 3))

    # ------------------------------------------------------------------
    # Scalar statistics
    # ------------------------------------------------------------------
    @property
    def num_bundles(self) -> int:
        return self.n_bt * self.n_bn * self.features

    @cached_property
    def num_active_bundles(self) -> int:
        return int(np.count_nonzero(self.active))

    @property
    def bundle_density(self) -> float:
        """Fraction of bundles that are active ("TTB density" in Fig. 6)."""
        return self.num_active_bundles / self.num_bundles if self.num_bundles else 0.0

    @cached_property
    def spike_count(self) -> int:
        """Number of spikes in the tensor."""
        return int(np.count_nonzero(self.spikes))

    @property
    def spike_density(self) -> float:
        """Fraction of nonzero entries ("density" in Fig. 6)."""
        size = self.timesteps * self.tokens * self.features
        return self.spike_count / size if size else 0.0

    # ------------------------------------------------------------------
    # Aggregations used downstream
    # ------------------------------------------------------------------
    @cached_property
    def active_per_feature(self) -> np.ndarray:
        """Active-bundle count per feature ``(D,)`` — the stratifier's and
        Fig. 5's per-feature statistic; see :func:`count_active` for the
        accumulator width."""
        return count_active(self.active, (0, 1))

    @cached_property
    def active_per_bundle_row(self) -> np.ndarray:
        """``n_ab[bt, bn]``: active bundles across features for each bundle
        row — ECP's pruning statistic (Sec. 5.1).

        For binary spikes, every token-time point inside bundle row
        ``(bt, bn)`` has at most ``n_ab`` active features, which bounds every
        attention score in that row by ``n_ab``.
        """
        return self.active.sum(axis=2, dtype=np.int64)

    def sparsity_loss_value(self) -> float:
        """Plain value of Eq. 10's inner sum for this tensor (L0 tags)."""
        return float(self.spike_count)


def as_grid(spikes: "np.ndarray | TTBGrid", spec: BundleSpec) -> TTBGrid:
    """``spikes`` itself when it is already a grid at ``spec``, else its grid."""
    if isinstance(spikes, TTBGrid):
        if spikes.spec != spec:
            raise ValueError(f"grid is bundled at {spikes.spec}, not {spec}")
        return spikes
    return TTBGrid(spikes, spec)
