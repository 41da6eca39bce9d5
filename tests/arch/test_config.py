"""Architecture configuration tests."""

import json

import pytest

from repro.arch import BishopConfig, DRAMConfig, PTBConfig, resolve_overrides
from repro.bundles import BundleSpec


class TestBishopConfig:
    def test_paper_defaults(self):
        config = BishopConfig()
        assert config.dense_pes == 512            # 16 × 32
        assert config.attn_pes == 512
        assert config.sparse_units == 128
        assert config.total_pes == 1152
        assert config.spikes_per_cycle == 10
        assert config.spike_generator_lanes == 512
        assert config.clock_hz == 500e6
        assert config.weight_glb_bytes == 144 * 1024
        assert config.spike_glb_bytes == 12 * 1024

    def test_throughputs(self):
        config = BishopConfig()
        assert config.dense_throughput == 5120
        assert config.sparse_throughput == 1280
        assert config.attn_throughput == 5120

    def test_with_overrides(self):
        config = BishopConfig().with_overrides(sparse_units=64)
        assert config.sparse_units == 64
        assert config.dense_rows == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BishopConfig(dense_rows=0)
        with pytest.raises(ValueError):
            BishopConfig(spikes_per_cycle=0)
        with pytest.raises(ValueError):
            BishopConfig(clock_hz=0)

    # Every architectural field the DSE space samples must fail fast on a
    # nonsense value — one case per rejected field.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dense_rows", 0),
            ("dense_cols", -1),
            ("attn_rows", 0),
            ("attn_cols", -4),
            ("sparse_units", 0),
            ("sparse_overhead", 0.5),
            ("attn_utilization", 0.0),
            ("attn_utilization", 1.5),
            ("spikes_per_cycle", 0),
            ("psum_regs_per_pe", 0),
            ("spike_generator_lanes", 0),
            ("weight_glb_bytes", 0),
            ("spike_glb_bytes", -1),
            ("stratify_dense_fraction", 1.5),
            ("stratify_dense_fraction", -0.1),
            ("pipeline_fill_cycles", -1),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError):
            BishopConfig(**{field: value})

    def test_rejects_invalid_dram(self):
        with pytest.raises(ValueError):
            DRAMConfig(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            DRAMConfig(bandwidth_bytes_per_s=-1.0)
        with pytest.raises(ValueError):
            DRAMConfig(power_w=-0.1)
        with pytest.raises(ValueError):
            DRAMConfig(energy_pj_per_byte=-1.0)

    def test_bundle_spec_frozen_default(self):
        a, b = BishopConfig(), BishopConfig()
        assert a.bundle_spec == b.bundle_spec == BundleSpec(2, 4)


class TestResolveOverrides:
    def test_nested_dicts_resolve(self):
        config = resolve_overrides(
            BishopConfig(),
            {
                "bundle_spec": {"bs_t": 4, "bs_n": 8},
                "dram": {"bandwidth_bytes_per_s": 2.4e9},
                "sparse_units": 64,
            },
        )
        assert config.bundle_spec == BundleSpec(4, 8)
        assert config.dram.bandwidth_bytes_per_s == 2.4e9
        assert config.dram.power_w == DRAMConfig().power_w  # untouched field
        assert config.sparse_units == 64

    def test_partial_nested_dicts_keep_base_values(self):
        """A partial bundle_spec/dram dict resolves against the BASE config's
        values, not the dataclass defaults."""
        base = BishopConfig(bundle_spec=BundleSpec(4, 8))
        config = resolve_overrides(base, {"bundle_spec": {"bs_t": 2}})
        assert config.bundle_spec == BundleSpec(2, 8)  # bs_n from base, not 4

    def test_invalid_nested_values_raise(self):
        with pytest.raises(ValueError):
            resolve_overrides(BishopConfig(), {"bundle_spec": {"bs_t": 0}})
        with pytest.raises(TypeError):
            resolve_overrides(BishopConfig(), {"bundle_spec": {"bogus": 1}})


class TestRemovedPolicySwitches:
    """Stratification and inactive-bundle skipping are compiler passes, not
    chip fields: a config, override set or kinds file (an old DSE or fleet
    export) that still sets the old switches fails and names the key."""

    KEYS = ("use_stratifier", "skip_inactive_bundles")

    @pytest.mark.parametrize("key", KEYS)
    def test_constructor_names_the_key(self, key):
        with pytest.raises(TypeError, match=key):
            BishopConfig(**{key: False})

    @pytest.mark.parametrize("key", KEYS)
    def test_resolve_overrides_names_the_key(self, key):
        with pytest.raises(TypeError, match=key):
            resolve_overrides(BishopConfig(), {"sparse_units": 64, key: False})

    @pytest.mark.parametrize("key", KEYS)
    def test_kinds_file_names_the_key(self, key, tmp_path):
        from repro.cluster import CHIP_KINDS, load_chip_kinds

        path = tmp_path / "kinds.json"
        path.write_text(
            json.dumps({"kinds": {"old_export": {"sparse_units": 64, key: True}}})
        )
        with pytest.raises(ValueError, match=key):
            load_chip_kinds(path)
        assert "old_export" not in CHIP_KINDS


class TestPTBConfig:
    def test_equal_area_pe_count(self):
        assert PTBConfig().pe_count == BishopConfig().total_pes

    def test_window_semantics(self):
        config = PTBConfig()
        assert config.effective_time_lanes(4) == 4     # short-T underuse
        assert config.effective_time_lanes(20) == 10   # window cap
        assert config.effective_time_lanes(0) == 1     # floor

    def test_attention_throughput_much_lower(self):
        config = PTBConfig()
        assert config.attention_throughput < 0.5 * config.throughput

    def test_with_overrides(self):
        config = PTBConfig().with_overrides(skip_efficiency=0.0)
        assert config.skip_efficiency == 0.0


class TestDRAMConfig:
    def test_paper_bandwidth(self):
        dram = DRAMConfig()
        assert dram.bandwidth_bytes_per_s == 76.8e9
        assert dram.power_w == pytest.approx(0.3239)

    def test_transfer_time(self):
        dram = DRAMConfig(bandwidth_bytes_per_s=1e9)
        assert dram.transfer_time_s(2e9) == pytest.approx(2.0)
