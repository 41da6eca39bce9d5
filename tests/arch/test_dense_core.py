"""Dense core cycle/traffic model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import BishopConfig, EnergyModel
from repro.arch.dense_core import dense_tile_activity
from repro.bundles import BundleSpec

from .core_stats import dense_core_on


def config(**kwargs):
    return BishopConfig(bundle_spec=BundleSpec(2, 4), **kwargs)


class TestCycles:
    def test_empty_inputs(self):
        result = dense_core_on(np.zeros((4, 8, 0)), 16, config())
        assert result.cycles == 0 and result.sac_ops == 0
        result = dense_core_on(np.zeros((4, 8, 3)), 0, config())
        assert result.cycles == 0

    def test_dense_cycle_formula(self):
        """Fully-dense workload: tiles × D_in × ⌈volume/lanes⌉ + fill."""
        cfg = config()
        spikes = np.ones((4, 8, 16))          # 2×2=4 bundles -> 1 row tile
        result = dense_core_on(spikes, 32, cfg)     # 1 col tile
        expected = 1 * 1 * 16 * 1 + 1 * cfg.pipeline_fill_cycles
        assert result.cycles == expected

    def test_tiling_multiplies(self):
        cfg = config()
        spikes = np.ones((8, 32, 16))         # 4×8=32 bundles -> 2 row tiles
        result = dense_core_on(spikes, 64, cfg)     # 2 col tiles
        expected = 2 * 2 * 16 + 4 * cfg.pipeline_fill_cycles
        assert result.cycles == expected

    def test_skip_saves_cycles(self, rng):
        cfg = config()
        spikes = (rng.random((8, 16, 32)) < 0.05).astype(np.float64)
        skipped = dense_core_on(spikes, 32, cfg, skip_inactive=True)
        dense = dense_core_on(spikes, 32, cfg, skip_inactive=False)
        assert skipped.cycles < dense.cycles

    def test_lockstep_row_pacing(self):
        """One active row forces the whole tile column step (the dense core's
        weakness on mixed-density workloads, motivating stratification)."""
        cfg = config()
        spikes = np.zeros((2, 64, 10))        # 16 bundles = one full row tile
        spikes[0, 0, :] = 1.0                 # one bundle active in EVERY feature
        result = dense_core_on(spikes, 32, cfg)
        assert result.cycles == 10 + cfg.pipeline_fill_cycles

    def test_volume_exceeding_lanes_costs_extra(self):
        cfg = BishopConfig(bundle_spec=BundleSpec(4, 4), spikes_per_cycle=10)
        spikes = np.ones((4, 4, 8))           # volume 16 > 10 lanes -> 2 cycles
        result = dense_core_on(spikes, 8, cfg)
        assert result.cycles == 1 * 1 * 8 * 2 + cfg.pipeline_fill_cycles


class TestOpsAndEnergy:
    def test_ops_proportional_to_active_pairs(self, rng):
        cfg = config()
        spikes = np.zeros((4, 8, 10))
        spikes[0, 0, 0] = 1.0
        result = dense_core_on(spikes, 16, cfg)
        assert result.sac_ops == 1 * cfg.bundle_spec.volume * 16

    def test_dense_ops_count_all_pairs(self):
        cfg = config()
        spikes = np.ones((4, 8, 10))
        result = dense_core_on(spikes, 16, cfg, skip_inactive=False)
        assert result.sac_ops == 4 * 10 * 8 * 16  # bundles × D_in × vol × out

    def test_compute_energy(self):
        cfg = config()
        model = EnergyModel()
        result = dense_core_on(np.ones((4, 8, 4)), 8, cfg)
        assert result.compute_energy_pj(model) == pytest.approx(
            result.sac_ops * model.e_sac_pj + result.idle_slots * model.e_idle_slot_pj
        )

    def test_idle_slots_counted_for_gated_work(self):
        """Sparse rows in an occupied lockstep step burn the idle toll."""
        cfg = config()
        dense = dense_core_on(np.ones((4, 16, 8)), 32, cfg)
        mixed = np.ones((4, 16, 8))
        mixed[:, 8:, :] = 0.0     # half the bundles silent, lockstep keeps pace
        sparse = dense_core_on(mixed, 32, cfg)
        assert sparse.idle_slots > dense.idle_slots
        assert sparse.sac_ops < dense.sac_ops

    def test_utilization_bounds(self, rng):
        spikes = (rng.random((8, 16, 32)) < 0.3).astype(np.float64)
        result = dense_core_on(spikes, 64, config())
        assert 0.0 < result.utilization <= 1.0


class TestTraffic:
    def test_weight_traffic_scales_with_row_tiles(self):
        cfg = config()
        small = dense_core_on(np.ones((4, 8, 16)), 32, cfg)   # 1 row tile
        large = dense_core_on(np.ones((8, 32, 16)), 32, cfg)  # 2 row tiles
        assert large.traffic.bytes(kind="weight") == 2 * small.traffic.bytes(kind="weight")

    def test_silent_features_fetch_no_weights(self):
        cfg = config()
        spikes = np.ones((4, 8, 16))
        spikes[:, :, 8:] = 0.0                # half the features silent
        partial = dense_core_on(spikes, 32, cfg)
        full = dense_core_on(np.ones((4, 8, 16)), 32, cfg)
        assert partial.traffic.bytes(kind="weight") == 0.5 * full.traffic.bytes(kind="weight")

    def test_activation_traffic_scales_with_col_tiles(self):
        cfg = config()
        one = dense_core_on(np.ones((4, 8, 16)), 32, cfg)
        two = dense_core_on(np.ones((4, 8, 16)), 64, cfg)
        assert two.traffic.bytes(kind="activation") == 2 * one.traffic.bytes(kind="activation")

    def test_output_psums_at_spad(self):
        result = dense_core_on(np.ones((4, 8, 16)), 32, config())
        assert result.traffic.bytes(level="spad", kind="output") > 0
        assert result.traffic.bytes(level="dram") == 0  # DRAM handled by accelerator


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    density=st.floats(0.0, 0.8),
    out_features=st.integers(1, 64),
)
def test_property_skip_never_slower_and_ops_bounded(seed, density, out_features):
    gen = np.random.default_rng(seed)
    spikes = (gen.random((6, 12, 16)) < density).astype(np.float64)
    cfg = config()
    skipped = dense_core_on(spikes, out_features, cfg, skip_inactive=True)
    dense = dense_core_on(spikes, out_features, cfg, skip_inactive=False)
    assert skipped.cycles <= dense.cycles
    assert skipped.sac_ops <= dense.sac_ops
    assert skipped.traffic.bytes() <= dense.traffic.bytes() + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    bundles=st.integers(0, 40),
    features=st.integers(0, 6),
    rows=st.integers(1, 9),
    skip=st.booleans(),
)
def test_property_tile_activity_counts_tile_and_row_steps(
    seed, bundles, features, rows, skip
):
    """``tile_steps[d]``: row tiles in which feature d steps; ``row_steps[d]``:
    the bundle rows of those tiles — counted tile by tile here."""
    active = np.random.default_rng(seed).random((bundles, features)) < 0.2
    cfg = config(dense_rows=rows)
    tile_steps, row_steps = dense_tile_activity(active, cfg, skip)
    want_tiles, want_rows = np.zeros(features, int), np.zeros(features, int)
    for start in range(0, bundles, rows):
        tile = active[start:start + rows]
        steps = tile.any(axis=0) if skip else np.ones(features, bool)
        want_tiles += steps
        want_rows += steps * len(tile)
    assert tile_steps.dtype == row_steps.dtype == np.int64
    np.testing.assert_array_equal(tile_steps, want_tiles)
    np.testing.assert_array_equal(row_steps, want_rows)
