"""Attention core tests: AAC/SAC modes, ECP integration, S-stationarity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algo import ECPConfig
from repro.arch import BishopConfig, EnergyModel, simulate_attention_core
from repro.arch.attention_core import merge_attention_heads
from repro.bundles import BundleSpec


def qkv(rng, t=4, h=2, n=16, d=8, density=0.15):
    def draw():
        return (rng.random((t, h, n, d)) < density).astype(np.float64)

    return draw(), draw(), draw()


def config(**kwargs):
    kwargs.setdefault("bundle_spec", BundleSpec(2, 4))
    return BishopConfig(**kwargs)


class TestMergeHeads:
    def test_layout(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        merged = merge_attention_heads(x)
        assert merged.shape == (2, 4, 15)
        np.testing.assert_array_equal(merged[0, 0, 5:10], x[0, 1, 0])


class TestComputeModel:
    def test_dense_op_counts(self, rng):
        q, k, v = qkv(rng, density=1.0)     # fully active
        result = simulate_attention_core(q, k, v, config())
        t, h, n, d = q.shape
        assert result.aac_ops == t * n * n * h * d
        assert result.sac_ops == result.aac_ops
        assert result.q_keep_fraction == 1.0

    def test_two_modes_cycle_split(self, rng):
        q, k, v = qkv(rng)
        result = simulate_attention_core(q, k, v, config())
        assert result.mode1_cycles > 0 and result.mode2_cycles > 0
        assert result.cycles == result.mode1_cycles + result.mode2_cycles

    def test_activity_skipping_reduces_ops(self, rng):
        q, k, v = qkv(rng, density=0.02)
        cfg = config()
        skipping = simulate_attention_core(q, k, v, cfg)
        dense = simulate_attention_core(q, k, v, cfg, skip_inactive=False)
        assert skipping.aac_ops < dense.aac_ops

    def test_shape_mismatch_raises(self, rng):
        q, k, v = qkv(rng)
        with pytest.raises(ValueError):
            simulate_attention_core(q, k[:, :, :8], v, config())

    def test_energy_uses_aac_and_sac(self, rng):
        q, k, v = qkv(rng)
        model = EnergyModel()
        result = simulate_attention_core(q, k, v, config())
        expected = result.aac_ops * model.e_aac_pj + result.sac_ops * model.e_sac_pj
        assert result.compute_energy_pj(model) == pytest.approx(expected)


class TestECP:
    def test_ecp_reduces_everything(self, rng):
        q, k, v = qkv(rng, n=32, density=0.03)
        cfg = config()
        ecp = ECPConfig(theta_q=4, theta_k=4, spec=cfg.bundle_spec)
        base = simulate_attention_core(q, k, v, cfg)
        pruned = simulate_attention_core(q, k, v, cfg, ecp=ecp)
        assert pruned.aac_ops <= base.aac_ops
        assert pruned.q_keep_fraction <= base.q_keep_fraction
        assert pruned.traffic.bytes() <= base.traffic.bytes() + 1e-9

    def test_compounding_fraction(self, rng):
        q, k, v = qkv(rng, density=0.05)
        cfg = config()
        ecp = ECPConfig(theta_q=3, theta_k=3, spec=cfg.bundle_spec)
        result = simulate_attention_core(q, k, v, cfg, ecp=ecp)
        assert result.score_compute_fraction == pytest.approx(
            result.q_keep_fraction * result.k_keep_fraction
        )

    def test_extreme_theta_kills_compute(self, rng):
        q, k, v = qkv(rng)
        cfg = config()
        ecp = ECPConfig(theta_q=10_000, theta_k=10_000, spec=cfg.bundle_spec)
        result = simulate_attention_core(q, k, v, cfg, ecp=ecp)
        assert result.aac_ops == 0
        assert result.q_keep_fraction == 0.0


class TestDataflow:
    def test_scores_never_reach_glb(self, rng):
        """S-stationary: the multi-bit scores stay in PE registers."""
        q, k, v = qkv(rng)
        result = simulate_attention_core(q, k, v, config())
        assert result.traffic.bytes(level="glb", kind="score") == 0.0
        assert result.traffic.bytes(level="spad", kind="score") > 0.0

    def test_y_streams_through_spad(self, rng):
        q, k, v = qkv(rng)
        result = simulate_attention_core(q, k, v, config())
        assert result.traffic.bytes(level="spad", kind="output") > 0.0
        assert result.traffic.bytes(level="dram") == 0.0

    def test_qkv_traffic_counted_at_glb(self, rng):
        q, k, v = qkv(rng)
        result = simulate_attention_core(q, k, v, config())
        assert result.traffic.bytes(level="glb", kind="activation") > 0.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    theta=st.integers(0, 12),
    density=st.floats(0.01, 0.3),
)
def test_property_ecp_monotone_in_theta(seed, theta, density):
    gen = np.random.default_rng(seed)
    q = (gen.random((4, 2, 16, 8)) < density).astype(np.float64)
    k = (gen.random((4, 2, 16, 8)) < density).astype(np.float64)
    v = (gen.random((4, 2, 16, 8)) < density).astype(np.float64)
    cfg = config()
    lo = simulate_attention_core(
        q, k, v, cfg, ecp=ECPConfig(theta, theta, cfg.bundle_spec) if theta else None
    )
    hi = simulate_attention_core(
        q, k, v, cfg, ecp=ECPConfig(theta + 2, theta + 2, cfg.bundle_spec)
    )
    assert hi.aac_ops <= lo.aac_ops
    assert hi.q_keep_fraction <= lo.q_keep_fraction + 1e-12
