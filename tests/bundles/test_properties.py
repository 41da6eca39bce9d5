"""Property tests for the bundle invariants the accelerator relies on.

* ``pad_to_bundle_grid`` never changes the active-bundle tags — zero
  padding cannot create or destroy activity, so every tag statistic is
  invariant (this is what lets the simulators reason on padded views).
* ``StratifiedWorkload.split`` is a correctness-preserving reordering:
  ``X_D·W_D + X_S·W_S = X·W`` exactly, for ragged (T, N) not divisible by
  the bundle extents and for degenerate feature counts / all-dense /
  all-sparse splits.
* The per-feature counts the compiler reads (``TTBGrid.active_per_feature``
  and ``dense_tile_activity``) accumulate in ``uint16`` below 65,536
  summed rows; they are ``==`` the plain ``int64`` expressions, kept here
  as the reference, and are ``int64`` arrays on both sides of the width
  switch.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch import BishopConfig
from repro.arch.dense_core import dense_tile_activity
from repro.arch.stratifier import stratify, theta_for_dense_fraction
from repro.bundles import BundleSpec, TTBGrid, pad_to_bundle_grid

# Ragged shapes: (T, N) deliberately not multiples of (bs_t, bs_n);
# D covers the degenerate single-feature and tiny cases.
RAGGED_CASES = [
    (5, 7, 13, BundleSpec(2, 4)),
    (1, 1, 1, BundleSpec(2, 4)),
    (3, 9, 1, BundleSpec(2, 2)),
    (7, 5, 8, BundleSpec(4, 4)),
    (2, 4, 16, BundleSpec(2, 4)),   # exact multiples as control
    (10, 3, 5, BundleSpec(3, 2)),
]


def random_spikes(t, n, d, density, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((t, n, d)) < density).astype(np.float64)


class TestPadInvariance:
    @pytest.mark.parametrize("t,n,d,spec", RAGGED_CASES)
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_tags_unchanged(self, t, n, d, spec, density):
        spikes = random_spikes(t, n, d, density, seed=t * 100 + n * 10 + d)
        padded = pad_to_bundle_grid(spikes, spec)
        before = TTBGrid(spikes, spec)
        after = TTBGrid(padded, spec)
        assert padded.shape[0] % spec.bs_t == 0
        assert padded.shape[1] % spec.bs_n == 0
        np.testing.assert_array_equal(before.tags, after.tags)
        np.testing.assert_array_equal(before.active, after.active)
        assert before.num_active_bundles == after.num_active_bundles
        np.testing.assert_array_equal(
            before.active_per_feature, after.active_per_feature
        )
        np.testing.assert_array_equal(
            before.active_per_bundle_row, after.active_per_bundle_row
        )

    @pytest.mark.parametrize("t,n,d,spec", RAGGED_CASES)
    def test_padding_is_idempotent(self, t, n, d, spec):
        spikes = random_spikes(t, n, d, 0.3, seed=1)
        once = pad_to_bundle_grid(spikes, spec)
        twice = pad_to_bundle_grid(once, spec)
        np.testing.assert_array_equal(once, twice)

    def test_padding_adds_only_zeros(self):
        spec = BundleSpec(2, 4)
        spikes = random_spikes(5, 7, 3, 0.4, seed=2)
        padded = pad_to_bundle_grid(spikes, spec)
        assert padded[5:].sum() == 0.0
        assert padded[:, 7:].sum() == 0.0
        assert padded.sum() == spikes.sum()


class TestSplitExactness:
    @pytest.mark.parametrize("t,n,d,spec", RAGGED_CASES)
    @pytest.mark.parametrize("dense_fraction", [0.0, 0.35, 1.0])
    def test_split_preserves_matmul_exactly(self, t, n, d, spec, dense_fraction):
        seed = t * 1000 + n * 100 + d * 10 + int(dense_fraction * 10)
        spikes = random_spikes(t, n, d, 0.3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        # integer weights: the reordered accumulation must be bit-exact
        weights = rng.integers(-8, 8, size=(d, 3)).astype(np.float64)

        theta = theta_for_dense_fraction(spikes, spec, dense_fraction)
        workload = stratify(spikes, spec, theta)
        x_dense, w_dense, x_sparse, w_sparse = workload.split(spikes, weights)

        direct = spikes @ weights
        recombined = x_dense @ w_dense + x_sparse @ w_sparse
        np.testing.assert_array_equal(recombined, direct)

    @pytest.mark.parametrize("t,n,d,spec", RAGGED_CASES)
    def test_partition_is_exact_cover(self, t, n, d, spec):
        spikes = random_spikes(t, n, d, 0.3, seed=d)
        theta = theta_for_dense_fraction(spikes, spec, 0.5)
        workload = stratify(spikes, spec, theta)
        merged = np.concatenate(
            [workload.dense_features, workload.sparse_features]
        )
        np.testing.assert_array_equal(np.sort(merged), np.arange(d))

    @pytest.mark.parametrize("dense_fraction", [0.0, 1.0])
    def test_degenerate_split_keeps_product(self, dense_fraction):
        spec = BundleSpec(2, 4)
        spikes = random_spikes(5, 7, 6, 0.4, seed=9)
        weights = np.random.default_rng(9).integers(-4, 4, (6, 2)).astype(float)
        theta = theta_for_dense_fraction(spikes, spec, dense_fraction)
        workload = stratify(spikes, spec, theta)
        if dense_fraction == 1.0:
            assert len(workload.dense_features) == 6
        else:
            assert len(workload.dense_features) == 0
        x_d, w_d, x_s, w_s = workload.split(spikes, weights)
        np.testing.assert_array_equal(x_d @ w_d + x_s @ w_s, spikes @ weights)

    def test_zero_feature_tensor(self):
        spec = BundleSpec(2, 4)
        spikes = np.zeros((5, 7, 0))
        workload = stratify(spikes, spec, 0.0)
        assert workload.num_features == 0
        x_dense, x_sparse = workload.split(spikes)
        assert x_dense.shape == (5, 7, 0) and x_sparse.shape == (5, 7, 0)


def reference_active_per_feature(grid):
    """Active bundles per feature, summed in ``int64``."""
    return grid.active.sum(axis=(0, 1), dtype=np.int64)


def reference_tile_activity(active, config, skip_inactive):
    """Per-feature ``(tile_steps, row_steps)`` in ``int64``: tiles summed
    in ``int64`` and the rows each tile occupies as a matrix product."""
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
    rows_per_tile = np.minimum(rows, num_bundles - rows * np.arange(row_tiles))
    return activity.sum(axis=0, dtype=np.int64), rows_per_tile @ activity


def assert_counts_match_reference(spikes, spec, dense_rows, skip_inactive):
    grid = TTBGrid(spikes, spec)
    counts = grid.active_per_feature
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, reference_active_per_feature(grid))
    active = grid.active.reshape(grid.n_bt * grid.n_bn, grid.features)
    config = BishopConfig(bundle_spec=spec, dense_rows=dense_rows)
    got = dense_tile_activity(active, config, skip_inactive)
    want = reference_tile_activity(active, config, skip_inactive)
    for got_steps, want_steps in zip(got, want):
        assert got_steps.dtype == np.int64
        np.testing.assert_array_equal(got_steps, want_steps)


class TestNarrowCounts:
    @given(
        t=st.integers(1, 12), n=st.integers(1, 20), d=st.integers(0, 9),
        bs_t=st.integers(1, 4), bs_n=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        dense_rows=st.integers(1, 7), skip_inactive=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_counts_equal_int64_reference(
        self, t, n, d, bs_t, bs_n, density, dense_rows, skip_inactive, seed
    ):
        """Ragged grids and last row tiles, zero features, packing off."""
        spikes = random_spikes(t, n, d, density, seed) > 0
        assert_counts_match_reference(
            spikes, BundleSpec(bs_t, bs_n), dense_rows, skip_inactive
        )

    @pytest.mark.parametrize("bundle_rows", [65_535, 65_536])
    @pytest.mark.parametrize("dense_rows", [1, 3])
    def test_width_switch(self, bundle_rows, dense_rows):
        """Around the ``uint16`` limit: one feature active in every bundle
        row (its count is the row count, which wraps to 0 in ``uint16`` at
        65,536), one in none, one in every other row."""
        spikes = np.zeros((bundle_rows, 1, 3), dtype=bool)
        spikes[:, :, 0] = True
        spikes[::2, :, 2] = True
        spec = BundleSpec(1, 1)
        assert_counts_match_reference(spikes, spec, dense_rows, True)
        counts = TTBGrid(spikes, spec).active_per_feature
        assert counts.tolist() == [bundle_rows, 0, (bundle_rows + 1) // 2]
        if dense_rows == 1:
            active = spikes.reshape(bundle_rows, 3)
            config = BishopConfig(bundle_spec=spec, dense_rows=1)
            tile_steps, _ = dense_tile_activity(active, config, True)
            assert tile_steps[0] == bundle_rows
