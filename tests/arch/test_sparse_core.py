"""Sparse core (SIGMA-like) model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import BishopConfig, EnergyModel
from repro.bundles import BundleSpec

from .core_stats import sparse_core_on


def config(**kwargs):
    return BishopConfig(bundle_spec=BundleSpec(2, 4), **kwargs)


class TestCycles:
    def test_empty_cases(self):
        assert sparse_core_on(np.zeros((4, 8, 0)), 8, config()).cycles == 0
        assert sparse_core_on(np.zeros((4, 8, 4)), 0, config()).cycles == 0
        assert sparse_core_on(np.zeros((4, 8, 4)), 8, config()).cycles == 0

    def test_single_wave_formula(self):
        cfg = config()
        spikes = np.zeros((4, 8, 4))
        spikes[0, 0, 0] = 1.0            # one active pair -> one wave
        result = sparse_core_on(spikes, 16, cfg)
        assert result.cycles == pytest.approx(1 * 16 * 1 * cfg.sparse_overhead)

    def test_waves_scale_with_active_pairs(self, rng):
        cfg = config()
        spikes = np.zeros((8, 64, 129))
        # 129 features × 1 active bundle each = 129 pairs -> 2 waves of 128.
        spikes[0, 0, :] = 1.0
        result = sparse_core_on(spikes, 8, cfg)
        assert result.cycles == pytest.approx(2 * 8 * 1 * cfg.sparse_overhead)
        assert result.active_pairs == 129

    def test_time_proportional_to_active_waves(self):
        """Above the 128-unit granularity, time tracks active pairs 1:1."""
        cfg = config()
        few = np.zeros((8, 64, 128))      # grid: 4×16 = 64 bundle slots
        few[0, :8, :16] = 1.0             # 2 slots × 16 feats = 32 pairs → 1 wave
        many = np.ones((8, 64, 128))      # 64 × 128 = 8192 pairs → 64 waves
        a = sparse_core_on(few, 16, cfg)
        b = sparse_core_on(many, 16, cfg)
        assert b.cycles == pytest.approx(64 * a.cycles)


class TestEnergyAndTraffic:
    def test_ops_and_energy(self):
        cfg = config()
        model = EnergyModel()
        spikes = np.zeros((4, 8, 4))
        spikes[0, 0, 0] = 1.0
        result = sparse_core_on(spikes, 16, cfg)
        assert result.sparse_ops == cfg.bundle_spec.volume * 16
        assert result.compute_energy_pj(model) == pytest.approx(
            result.sparse_ops * model.e_sparse_op_pj
        )

    def test_weight_gather_per_pair(self):
        cfg = config()
        spikes = np.zeros((4, 8, 4))
        spikes[0, 0, 0] = 1.0
        spikes[2, 4, 1] = 1.0
        result = sparse_core_on(spikes, 16, cfg)
        assert result.traffic.bytes(kind="weight") == 2 * 16 * cfg.weight_bits / 8

    def test_silent_features_cost_nothing(self):
        cfg = config()
        spikes = np.zeros((4, 8, 100))
        result = sparse_core_on(spikes, 64, cfg)
        assert result.traffic.bytes() == 0.0
        assert result.cycles == 0.0

    def test_utilization_bounds(self, rng):
        spikes = (rng.random((8, 16, 32)) < 0.1).astype(np.float64)
        result = sparse_core_on(spikes, 32, config())
        assert 0.0 < result.utilization <= 1.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), density=st.floats(0.0, 0.5))
def test_property_cycles_monotone_in_activity(seed, density):
    """Adding spikes can only add active pairs, never remove cycles."""
    gen = np.random.default_rng(seed)
    base = (gen.random((6, 8, 16)) < density).astype(np.float64)
    more = np.maximum(base, (gen.random((6, 8, 16)) < 0.1).astype(np.float64))
    cfg = config()
    assert (
        sparse_core_on(more, 8, cfg).cycles
        >= sparse_core_on(base, 8, cfg).cycles
    )
