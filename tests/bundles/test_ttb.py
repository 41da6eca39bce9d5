"""Token-Time Bundle grid tests (Sec. 3 invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bundles import BundleSpec, TTBGrid, pad_to_bundle_grid


class TestBundleSpec:
    def test_volume(self):
        assert BundleSpec(2, 4).volume == 8

    def test_grid_shape_exact(self):
        assert BundleSpec(2, 4).grid_shape(10, 64) == (5, 16)

    def test_grid_shape_ceil(self):
        assert BundleSpec(4, 4).grid_shape(10, 65) == (3, 17)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            BundleSpec(0, 4)


class TestPadding:
    def test_noop_when_divisible(self, small_spikes, spec):
        padded = pad_to_bundle_grid(small_spikes, spec)
        assert padded is small_spikes

    def test_pads_with_zeros(self, rng):
        spikes = (rng.random((5, 7, 3)) < 0.5).astype(np.float64)
        padded = pad_to_bundle_grid(spikes, BundleSpec(2, 4))
        assert padded.shape == (6, 8, 3)
        assert padded.sum() == spikes.sum()


class TestTags:
    def test_tags_match_manual_count(self, spec):
        spikes = np.zeros((4, 8, 2))
        spikes[0, 0, 0] = 1  # bundle (0, 0, feature 0)
        spikes[1, 3, 0] = 1  # same bundle (bt=0 covers t∈{0,1}, bn=0 covers n∈{0..3})
        spikes[3, 7, 1] = 1  # bundle (1, 1, feature 1)
        grid = TTBGrid(spikes, spec)
        assert grid.tags[0, 0, 0] == 2
        assert grid.tags[1, 1, 1] == 1
        assert grid.tags.sum() == 3

    def test_active_iff_any_spike(self, small_spikes, spec):
        grid = TTBGrid(small_spikes, spec)
        np.testing.assert_array_equal(grid.active, grid.tags > 0)

    def test_all_zero_tensor(self, spec):
        grid = TTBGrid(np.zeros((4, 8, 3)), spec)
        assert grid.num_active_bundles == 0
        assert grid.bundle_density == 0.0

    def test_all_ones_tensor(self, spec):
        grid = TTBGrid(np.ones((4, 8, 3)), spec)
        assert grid.bundle_density == 1.0
        assert grid.spike_density == 1.0

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_non_binary(self, spec, value):
        spikes = np.zeros((2, 4, 3))
        spikes[1, 2, 1] = value
        with pytest.raises(ValueError, match="binary"):
            TTBGrid(spikes, spec)

    @pytest.mark.parametrize(
        "spikes",
        [
            np.full((2, 4, 1), -0.0),
            np.ones((2, 4, 1), dtype=bool),
            np.zeros((0, 4, 2)),
        ],
        ids=["negative-zero", "bool", "empty"],
    )
    def test_accepts_binary(self, spec, spikes):
        assert TTBGrid(spikes, spec).num_active_bundles == int(spikes.any())

    def test_rejects_wrong_rank(self, spec):
        with pytest.raises(ValueError):
            TTBGrid(np.zeros((2, 4)), spec)


class TestAggregations:
    def test_active_per_feature(self, spec):
        spikes = np.zeros((4, 8, 3))
        spikes[:, :, 1] = 1.0  # feature 1 fully active
        grid = TTBGrid(spikes, spec)
        np.testing.assert_array_equal(grid.active_per_feature, [0, 4, 0])

    def test_active_per_bundle_row(self, spec):
        spikes = np.zeros((4, 8, 5))
        spikes[0, 0, :3] = 1.0  # row (0,0): 3 active features
        grid = TTBGrid(spikes, spec)
        assert grid.active_per_bundle_row[0, 0] == 3
        assert grid.active_per_bundle_row.sum() == 3

    def test_sparsity_loss_equals_spike_count(self, small_spikes, spec):
        # For binary spikes, the sum of L0 tags is the total spike count.
        grid = TTBGrid(small_spikes, spec)
        assert grid.sparsity_loss_value() == small_spikes.sum()


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
spike_tensors = st.tuples(
    st.integers(1, 9), st.integers(1, 12), st.integers(1, 6),
    st.floats(0.0, 0.6), st.integers(0, 2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@given(params=spike_tensors, bs_t=st.integers(1, 4), bs_n=st.integers(1, 5))
def test_property_tag_sum_is_spike_count(params, bs_t, bs_n):
    """Every spike lands in exactly one bundle (partition property)."""
    t, n, d, density, seed = params
    gen = np.random.default_rng(seed)
    spikes = (gen.random((t, n, d)) < density).astype(np.float64)
    grid = TTBGrid(spikes, BundleSpec(bs_t, bs_n))
    assert grid.tags.sum() == spikes.sum()


@settings(max_examples=60, deadline=None)
@given(params=spike_tensors, bs_t=st.integers(1, 4), bs_n=st.integers(1, 5))
def test_property_bundle_density_bounds_spike_density(params, bs_t, bs_n):
    """TTB density ≥ spike density ≥ TTB density / volume (Fig.-6 gap)."""
    t, n, d, density, seed = params
    gen = np.random.default_rng(seed)
    spikes = (gen.random((t, n, d)) < density).astype(np.float64)
    grid = TTBGrid(spikes, BundleSpec(bs_t, bs_n))
    padded_spike_density = spikes.sum() / (
        grid.n_bt * bs_t * grid.n_bn * bs_n * d
    )
    assert grid.bundle_density >= padded_spike_density - 1e-12
    assert grid.bundle_density <= spikes.sum() + 1e-12  # trivially
    assert grid.bundle_density * grid.spec.volume >= padded_spike_density - 1e-12


@settings(max_examples=40, deadline=None)
@given(params=spike_tensors)
def test_property_volume_one_bundles_equal_spikes(params):
    """With a 1×1 bundle, active bundles are exactly the spikes."""
    t, n, d, density, seed = params
    gen = np.random.default_rng(seed)
    spikes = (gen.random((t, n, d)) < density).astype(np.float64)
    grid = TTBGrid(spikes, BundleSpec(1, 1))
    assert grid.num_active_bundles == spikes.sum()


@settings(max_examples=40, deadline=None)
@given(params=spike_tensors, bs_t=st.integers(1, 3), bs_n=st.integers(1, 4))
def test_property_row_counts_consistent(params, bs_t, bs_n):
    """Row/feature aggregations both sum to the total active count."""
    t, n, d, density, seed = params
    gen = np.random.default_rng(seed)
    spikes = (gen.random((t, n, d)) < density).astype(np.float64)
    grid = TTBGrid(spikes, BundleSpec(bs_t, bs_n))
    assert grid.active_per_feature.sum() == grid.num_active_bundles
    assert grid.active_per_bundle_row.sum() == grid.num_active_bundles


# ----------------------------------------------------------------------
# Storage contract: bool spikes, float input converted once, slices
# ----------------------------------------------------------------------
GRID_FIELDS = (
    "spec", "timesteps", "tokens", "features", "n_bt", "n_bn", "shape",
    "spikes", "active", "tags", "active_per_feature", "active_per_bundle_row",
    "num_bundles", "num_active_bundles", "bundle_density", "spike_count",
    "spike_density",
)


def assert_same_grid(got, want):
    for name in GRID_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            assert a == b, name


class TestStorageContract:
    def test_bool_input_is_shared_not_copied(self, small_spikes, spec):
        spikes = small_spikes.astype(bool)
        grid = TTBGrid(spikes, spec)
        assert grid.spikes is spikes
        assert np.shares_memory(grid.spikes, spikes)

    def test_float_input_matches_its_bool_twin(self, small_spikes, spec):
        from_float = TTBGrid(small_spikes, spec)
        from_bool = TTBGrid(small_spikes.astype(bool), spec)
        assert from_float.spikes.dtype == bool
        assert_same_grid(from_float, from_bool)
        assert from_float.tags.dtype.kind == "i"

    def test_int_input_matches_its_bool_twin(self, small_spikes, spec):
        assert_same_grid(
            TTBGrid(small_spikes.astype(np.int8), spec),
            TTBGrid(small_spikes.astype(bool), spec),
        )

    @pytest.mark.parametrize("value", [0.5, np.nan])
    def test_non_binary_float_raises(self, small_spikes, spec, value):
        spikes = small_spikes.copy()
        spikes[0, 0, 0] = value
        with pytest.raises(ValueError, match="binary"):
            TTBGrid(spikes, spec)
