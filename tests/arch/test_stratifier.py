"""Stratifier tests — Algorithm 1 correctness and threshold policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import balanced_theta, stratify, theta_for_dense_fraction
from repro.bundles import BundleSpec, TTBGrid


class TestAlgorithm1:
    def test_partition_is_exact(self, small_spikes, spec):
        workload = stratify(small_spikes, spec, theta=1.0)
        merged = np.sort(
            np.concatenate([workload.dense_features, workload.sparse_features])
        )
        np.testing.assert_array_equal(merged, np.arange(small_spikes.shape[2]))

    def test_threshold_semantics_strictly_greater(self, spec):
        spikes = np.zeros((4, 8, 3))
        spikes[:, :, 0] = 1.0        # 4 active bundles
        spikes[0, 0, 1] = 1.0        # 1 active bundle
        workload = stratify(spikes, spec, theta=1.0)
        np.testing.assert_array_equal(workload.dense_features, [0])
        np.testing.assert_array_equal(workload.sparse_features, [1, 2])

    def test_split_views(self, small_spikes, spec, rng):
        workload = stratify(small_spikes, spec, theta=0.0)
        weights = rng.normal(size=(small_spikes.shape[2], 5))
        x_d, w_d, x_s, w_s = workload.split(small_spikes, weights)
        assert x_d.shape[2] == w_d.shape[0]
        assert x_s.shape[2] == w_s.shape[0]

    def test_matmul_decomposition_identity(self, small_spikes, spec, rng):
        """X_D·W_D + X_S·W_S == X·W — Alg. 1 is a pure reordering."""
        weights = rng.normal(size=(small_spikes.shape[2], 7))
        workload = stratify(small_spikes, spec, theta=1.0)
        x_d, w_d, x_s, w_s = workload.split(small_spikes, weights)
        recombined = x_d @ w_d + x_s @ w_s
        np.testing.assert_allclose(recombined, small_spikes @ weights, atol=1e-12)

    def test_dense_fraction_property(self, small_spikes, spec):
        all_dense = stratify(small_spikes, spec, theta=-1.0)
        assert all_dense.dense_fraction == 1.0
        all_sparse = stratify(
            small_spikes, spec,
            theta=float(TTBGrid(small_spikes, spec).active_per_feature.max()),
        )
        assert all_sparse.dense_fraction == 0.0


class TestThetaPolicies:
    def test_fraction_targeting(self, rng, spec):
        spikes = (rng.random((8, 16, 64)) < rng.random(64) * 0.4).astype(np.float64)
        for target in (0.25, 0.5, 0.75):
            theta = theta_for_dense_fraction(spikes, spec, target)
            workload = stratify(spikes, spec, theta)
            assert abs(workload.dense_fraction - target) < 0.25

    def test_fraction_extremes(self, small_spikes, spec):
        theta_all = theta_for_dense_fraction(small_spikes, spec, 1.0)
        assert stratify(small_spikes, spec, theta_all).dense_fraction == 1.0
        theta_none = theta_for_dense_fraction(small_spikes, spec, 0.0)
        assert stratify(small_spikes, spec, theta_none).dense_fraction == 0.0

    def test_fraction_rejects_out_of_range(self, small_spikes, spec):
        with pytest.raises(ValueError):
            theta_for_dense_fraction(small_spikes, spec, 1.5)

    def test_balanced_theta_minimizes_bottleneck(self, rng, spec):
        spikes = (rng.random((8, 16, 32)) < rng.random(32) * 0.5).astype(np.float64)

        def dense_time(workload):
            return float(len(workload.dense_features))

        def sparse_time(workload):
            counts = workload.active_per_feature[workload.sparse_features]
            return float(counts.sum()) / 4.0

        theta = balanced_theta(spikes, spec, dense_time, sparse_time)
        chosen = stratify(spikes, spec, theta)
        best = max(dense_time(chosen), sparse_time(chosen))
        # No candidate quantile does better.
        for candidate in np.unique(TTBGrid(spikes, spec).active_per_feature):
            other = stratify(spikes, spec, float(candidate))
            assert best <= max(dense_time(other), sparse_time(other)) + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    theta=st.floats(0.0, 10.0),
    d=st.integers(1, 40),
)
def test_property_stratification_preserves_matmul(seed, theta, d):
    gen = np.random.default_rng(seed)
    spikes = (gen.random((6, 8, d)) < 0.3).astype(np.float64)
    weights = gen.normal(size=(d, 5))
    spec = BundleSpec(2, 4)
    workload = stratify(spikes, spec, theta)
    x_d, w_d, x_s, w_s = workload.split(spikes, weights)
    dense_part = x_d @ w_d if x_d.shape[2] else 0.0
    sparse_part = x_s @ w_s if x_s.shape[2] else 0.0
    np.testing.assert_allclose(dense_part + sparse_part, spikes @ weights, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), theta=st.floats(0.0, 8.0))
def test_property_dense_features_are_denser(seed, theta):
    """Every dense-routed feature has a strictly higher active-bundle count
    than every sparse-routed feature at the same threshold."""
    gen = np.random.default_rng(seed)
    spikes = (gen.random((6, 8, 24)) < gen.random(24) * 0.5).astype(np.float64)
    spec = BundleSpec(2, 2)
    workload = stratify(spikes, spec, theta)
    counts = workload.active_per_feature
    if len(workload.dense_features) and len(workload.sparse_features):
        assert counts[workload.dense_features].min() > counts[workload.sparse_features].max()


class TestZeroFeatures:
    """A ``(T, N, 0)`` layer has a defined θ_s and scores no candidate."""

    def test_balanced_theta_skips_the_scorers(self, spec):
        def never(workload):
            raise AssertionError("no candidate to score")

        assert balanced_theta(np.zeros((4, 8, 0), bool), spec, never, never) == 0.0

    @pytest.mark.parametrize("fraction, want", [(0.0, 0.0), (0.5, 0.0), (1.0, -1.0)])
    def test_fraction_targeting(self, spec, fraction, want):
        spikes = np.zeros((4, 8, 0), bool)
        theta = theta_for_dense_fraction(spikes, spec, fraction)
        assert theta == want
        assert stratify(spikes, spec, theta).num_features == 0


# Count vectors the balanced-θ search must handle: all equal, one feature,
# few distinct values with many zeros, more distinct values than
# candidates, and values far beyond any layer's bundle count.
count_vectors = st.one_of(
    st.tuples(st.integers(0, 2**16), st.integers(1, 40)).map(
        lambda value_d: [value_d[0]] * value_d[1]
    ),
    st.integers(0, 2**20).map(lambda value: [value]),
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=1, max_size=60),
    st.lists(st.integers(0, 300), min_size=17, max_size=120, unique=True),
    st.lists(st.integers(0, 40), min_size=17, max_size=200),
    st.lists(st.integers(0, 2**20), min_size=1, max_size=80),
).map(lambda values: np.array(values, dtype=np.int64))


def reference_candidates(counts, num_candidates):
    """The θ_s candidates as ``np.quantile`` picks them."""
    unique = np.unique(counts)
    if len(unique) > num_candidates:
        quantiles = np.linspace(0.0, 1.0, num_candidates)
        return np.unique(np.quantile(unique, quantiles, method="lower"))
    return unique


@settings(max_examples=150, deadline=None)
@given(counts=count_vectors, num_candidates=st.one_of(st.just(16), st.integers(1, 20)))
def test_property_candidates_match_quantile_reference(counts, num_candidates):
    """Candidate θs are ``==`` the quantile reference, each candidate
    partition holds ``stratify``'s feature sets, the scorers are called
    once each per candidate in ascending θ, and the chosen θ_s is the one
    the per-candidate ``stratify`` loop picks."""
    spec = BundleSpec(2, 4)
    spikes = np.zeros((1, 1, len(counts)), bool)  # unread: counts are given
    weights = np.arange(len(counts)) * 7919 % 101

    def dense_time(workload):
        return float(weights[workload.dense_features].sum())

    def sparse_time(workload):
        return float(counts[workload.sparse_features].sum()) / 64.0

    calls = []

    def recorded(core, score):
        def scorer(workload):
            calls.append((core, workload))
            return score(workload)

        return scorer

    theta = balanced_theta(
        spikes, spec,
        recorded("dense", dense_time),
        recorded("sparse", sparse_time),
        num_candidates,
        counts=counts,
    )
    candidates = reference_candidates(counts, num_candidates)
    assert [core for core, _ in calls] == ["dense", "sparse"] * len(candidates)
    scored = [w for _, w in calls[::2]]
    assert all(w is s for w, (_, s) in zip(scored, calls[1::2]))
    assert [w.theta for w in scored] == [float(c) for c in candidates]

    best_theta, best_time = float(candidates[0]), np.inf
    for workload in scored:
        want = stratify(spikes, spec, workload.theta, counts=counts)
        np.testing.assert_array_equal(np.sort(workload.dense_features), want.dense_features)
        np.testing.assert_array_equal(np.sort(workload.sparse_features), want.sparse_features)
        bottleneck = max(dense_time(want), sparse_time(want))
        if bottleneck < best_time:
            best_theta, best_time = workload.theta, bottleneck
    assert theta == best_theta
