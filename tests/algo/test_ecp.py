"""ECP tests — including the paper's error-bound theorem as a property test.

Theorem (Sec. 5.1): for binary Q, the attention scores of every token-time
point inside bundle-row (bt, bn) are bounded by that row's active-bundle
count ``n_ab`` across features.  Pruning rows with ``n_ab < θ`` therefore
perturbs any score by strictly less than θ.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algo import (
    ECPAttentionPruner,
    ECPConfig,
    attach_ecp,
    bundle_row_keep_mask,
    detach_ecp,
    ecp_prune_qk,
    expand_row_mask,
)
from repro.bundles import BundleSpec, TTBGrid


def random_qk(seed, t=6, n=8, d=16, q_density=0.08, k_density=0.1):
    gen = np.random.default_rng(seed)
    q = (gen.random((t, n, d)) < q_density).astype(np.float64)
    k = (gen.random((t, n, d)) < k_density).astype(np.float64)
    return q, k


class TestRowMask:
    def test_keeps_rows_at_or_above_theta(self, spec):
        q = np.zeros((4, 8, 10))
        q[0, 0, :5] = 1.0   # row (0,0): n_ab = 5
        mask = bundle_row_keep_mask(q, theta=5, spec=spec)
        assert mask[0, 0]
        mask = bundle_row_keep_mask(q, theta=6, spec=spec)
        assert not mask[0, 0]

    def test_theta_zero_keeps_everything(self, small_spikes, spec):
        assert bundle_row_keep_mask(small_spikes, 0, spec).all()

    def test_expand_row_mask_shape(self, spec):
        rows = np.array([[True, False], [False, True]])
        mask = expand_row_mask(rows, BundleSpec(2, 3), timesteps=3, tokens=5)
        assert mask.shape == (3, 5)
        assert mask[0, :3].all() and not mask[0, 3:].any()
        assert mask[2, 3:].all() and not mask[2, :3].any()


class TestPruneQK:
    def test_report_fractions(self, spec):
        q, k = random_qk(0)
        config = ECPConfig(theta_q=2, theta_k=2, spec=spec)
        q_pruned, k_pruned, report = ecp_prune_qk(q, k, config)
        assert 0.0 <= report.q_token_keep_fraction <= 1.0
        assert report.score_compute_fraction == pytest.approx(
            report.q_token_keep_fraction * report.k_token_keep_fraction
        )
        assert report.v_access_fraction == report.k_token_keep_fraction
        assert report.y_writeback_fraction == report.q_token_keep_fraction

    def test_pruned_rows_are_zero(self, spec):
        q, k = random_qk(1)
        config = ECPConfig(theta_q=3, theta_k=3, spec=spec)
        q_pruned, _, report = ecp_prune_qk(q, k, config)
        mask = expand_row_mask(report.q_row_keep, spec, q.shape[0], q.shape[1])
        assert q_pruned[~mask].sum() == 0
        np.testing.assert_array_equal(q_pruned[mask], q[mask])

    def test_theta_zero_is_identity(self, spec):
        q, k = random_qk(2)
        q_pruned, k_pruned, report = ecp_prune_qk(
            q, k, ECPConfig(theta_q=0, theta_k=0, spec=spec)
        )
        np.testing.assert_array_equal(q_pruned, q)
        np.testing.assert_array_equal(k_pruned, k)
        assert report.q_token_keep_fraction == 1.0

    def test_pruning_monotone_in_theta(self, spec):
        q, k = random_qk(3)
        keeps = []
        for theta in (0, 1, 2, 4, 8, 16):
            _, _, report = ecp_prune_qk(q, k, ECPConfig(theta, theta, spec))
            keeps.append(report.q_token_keep_fraction)
        assert all(a >= b for a, b in zip(keeps, keeps[1:]))

    def test_huge_theta_prunes_everything(self, spec):
        q, k = random_qk(4)
        q_pruned, k_pruned, report = ecp_prune_qk(
            q, k, ECPConfig(10_000, 10_000, spec)
        )
        assert q_pruned.sum() == 0 and k_pruned.sum() == 0
        assert report.q_token_keep_fraction == 0.0

    def test_rejects_mismatched_grids(self, spec):
        q, k = random_qk(5)
        with pytest.raises(ValueError):
            ecp_prune_qk(q, k[:, :4], ECPConfig(1, 1, spec))

    def test_rejects_negative_threshold(self, spec):
        with pytest.raises(ValueError):
            ECPConfig(theta_q=-1, theta_k=0, spec=spec)


class TestErrorBoundTheorem:
    def test_score_bound_by_row_count(self, spec):
        q, k = random_qk(6)
        grid = TTBGrid(q, spec)
        scores = np.einsum("tnd,tmd->tnm", q, k)
        for bt in range(grid.n_bt):
            for bn in range(grid.n_bn):
                n_ab = grid.active_per_bundle_row[bt, bn]
                row_scores = scores[
                    bt * spec.bs_t : (bt + 1) * spec.bs_t,
                    bn * spec.bs_n : (bn + 1) * spec.bs_n,
                ]
                assert row_scores.max(initial=0) <= n_ab

    def test_pruning_error_within_bound(self, spec):
        q, k = random_qk(7, q_density=0.15, k_density=0.15)
        config = ECPConfig(theta_q=4, theta_k=5, spec=spec)
        q_pruned, k_pruned, report = ecp_prune_qk(q, k, config)
        before = np.einsum("tnd,tmd->tnm", q, k)
        after = np.einsum("tnd,tmd->tnm", q_pruned, k_pruned)
        error = np.abs(before - after)
        assert error.max(initial=0) < report.error_bound


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    t=st.integers(1, 8),
    n=st.integers(1, 12),
    d=st.integers(1, 24),
    density=st.floats(0.0, 0.4),
    theta=st.integers(1, 10),
    bs_t=st.integers(1, 3),
    bs_n=st.integers(1, 4),
)
def test_property_certified_error_bound(seed, t, n, d, density, theta, bs_t, bs_n):
    """For ANY binary Q/K, pruning at θ changes every score by < θ."""
    gen = np.random.default_rng(seed)
    q = (gen.random((t, n, d)) < density).astype(np.float64)
    k = (gen.random((t, n, d)) < density).astype(np.float64)
    spec = BundleSpec(bs_t, bs_n)
    config = ECPConfig(theta_q=theta, theta_k=theta, spec=spec)
    q_pruned, k_pruned, _ = ecp_prune_qk(q, k, config)
    before = np.einsum("tnd,tmd->tnm", q, k)
    after = np.einsum("tnd,tmd->tnm", q_pruned, k_pruned)
    assert np.abs(before - after).max(initial=0.0) < theta


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    t=st.integers(1, 6),
    n=st.integers(1, 10),
    d=st.integers(4, 24),
    density=st.floats(0.0, 0.5),
    theta_q=st.integers(1, 4),
    theta_k=st.integers(1, 4),
    bs_t=st.integers(1, 3),
    bs_n=st.integers(1, 4),
)
def test_property_bool_scores_are_counts_within_bound(
    seed, t, n, d, density, theta_q, theta_k, bs_t, bs_n
):
    """On ``bool`` Q/K the integer score error stays below the certified
    bound, and scores are counts, not the logical product of a bool einsum:
    a row kept by construction scores ``d > 1`` against itself."""
    gen = np.random.default_rng(seed)
    q = gen.random((t, n, d)) < density
    k = gen.random((t, n, d)) < density
    q[0, 0], k[0, 0] = True, True  # n_ab >= d >= θ: both rows survive
    config = ECPConfig(theta_q=theta_q, theta_k=theta_k, spec=BundleSpec(bs_t, bs_n))
    q_pruned, k_pruned, report = ecp_prune_qk(q, k, config)
    assert q_pruned.dtype == bool and k_pruned.dtype == bool
    before = np.einsum("tnd,tmd->tnm", q, k, dtype=np.int64)
    after = np.einsum("tnd,tmd->tnm", q_pruned, k_pruned, dtype=np.int64)
    assert np.abs(before - after).max() < report.error_bound
    assert after.max() > 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    theta=st.integers(1, 8),
)
def test_property_surviving_rows_unchanged(seed, theta):
    """Pruning only ever zeroes rows; surviving entries are untouched."""
    gen = np.random.default_rng(seed)
    q = (gen.random((4, 8, 12)) < 0.2).astype(np.float64)
    k = (gen.random((4, 8, 12)) < 0.2).astype(np.float64)
    spec = BundleSpec(2, 2)
    q_pruned, _, report = ecp_prune_qk(q, k, ECPConfig(theta, theta, spec))
    mask = expand_row_mask(report.q_row_keep, spec, 4, 8)
    np.testing.assert_array_equal(q_pruned[mask], q[mask])
    assert (q_pruned <= q).all()


class TestAttentionPruner:
    def test_masks_shape_and_reports(self, spec):
        pruner = ECPAttentionPruner(ECPConfig(2, 2, spec))
        gen = np.random.default_rng(0)
        q = (gen.random((4, 3, 8, 16)) < 0.1).astype(np.float64)
        k = (gen.random((4, 3, 8, 16)) < 0.1).astype(np.float64)
        mask_q, mask_k = pruner.token_masks(q, k)
        assert mask_q.shape == (4, 3, 8)
        assert len(pruner.last_reports) == 3  # one per batch element

    def test_attach_detach(self, tiny_model, spec):
        pruners = attach_ecp(tiny_model, ECPConfig(1, 1, spec))
        assert len(pruners) == tiny_model.config.num_blocks
        assert all(ssa.ecp is not None for ssa in tiny_model.attention_modules())
        detach_ecp(tiny_model)
        assert all(ssa.ecp is None for ssa in tiny_model.attention_modules())

    def test_model_inference_with_ecp_runs(self, tiny_model, tiny_batch, spec):
        from repro.autograd import no_grad

        attach_ecp(tiny_model, ECPConfig(1, 1, spec))
        try:
            with no_grad():
                logits = tiny_model(tiny_batch)
            assert logits.shape[1] == tiny_model.config.num_classes
        finally:
            detach_ecp(tiny_model)
