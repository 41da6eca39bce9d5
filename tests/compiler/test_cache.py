"""The content-addressed program cache: keys and the memory layer.

The store contract (layout, atomic put, self-healing, gc) is tested for
both caches in tests/test_store.py.
"""

import json

import pytest

from repro.algo import ECPConfig
from repro.bundles import BundleSpec
from repro.compiler import (
    PassConfig,
    Program,
    ProgramCache,
    compile_model,
    program_key,
)
from repro.serve.profiles import profile_config
from repro.store import GcResult


@pytest.fixture()
def config():
    return profile_config()


class TestProgramKey:
    def test_stable(self, config):
        a = program_key("model4", config, PassConfig(), seed=0)
        b = program_key("model4", config, PassConfig(), seed=0)
        assert a == b

    def test_distinguishes_every_axis(self, config):
        base = program_key("model4", config, PassConfig(), seed=0)
        assert program_key("model2", config, PassConfig(), seed=0) != base
        assert program_key("model4", config, PassConfig(), seed=1) != base
        assert (
            program_key("model4", config, PassConfig(schedule=False), seed=0)
            != base
        )
        other_chip = config.with_overrides(sparse_units=256)
        assert program_key("model4", other_chip, PassConfig(), seed=0) != base
        ecp = ECPConfig(theta_q=6, theta_k=6, spec=BundleSpec(2, 4))
        assert program_key("model4", config, PassConfig(), seed=0, ecp=ecp) != base

    def test_energy_model_is_part_of_the_key(self, config):
        """Energy annotations are baked into stage annotations, so a
        non-default EnergyModel must miss default-energy entries."""
        import dataclasses

        from repro.arch import EnergyModel

        default = EnergyModel()
        base = program_key("model4", config, PassConfig())
        explicit = program_key("model4", config, PassConfig(), energy=default)
        assert explicit == base  # None keys as the default model
        field = dataclasses.fields(default)[0].name
        custom = dataclasses.replace(default, **{field: 1234.5})
        assert program_key("model4", config, PassConfig(), energy=custom) != base


class TestProgramCache:
    def test_memory_layer_round_trip(self, config):
        cache = ProgramCache(None)
        program = compile_model("model4", config, cache=cache)
        key = program_key("model4", config, PassConfig(), seed=0)
        assert cache.get(key) is program
        assert key in cache

    def test_disk_layer_survives_new_instance(self, tmp_path, config):
        writer = ProgramCache(tmp_path)
        program = compile_model("model4", config, cache=writer)
        key = program_key("model4", config, PassConfig(), seed=0)

        reader = ProgramCache(tmp_path)
        loaded = reader.get(key)
        assert loaded is not None
        assert loaded.timings() == program.timings()
        assert loaded.serial_latency_s == program.serial_latency_s
        assert loaded.scheduled_latency_s == program.scheduled_latency_s

    def test_disk_hit_skips_compilation(self, tmp_path, config, monkeypatch):
        writer = ProgramCache(tmp_path)
        compile_model("model4", config, cache=writer)

        # A fresh process would re-import; simulate by failing the trace
        # builder — a disk hit must never need it.
        import repro.harness.synthetic as synthetic

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache miss: synthetic trace rebuilt")

        monkeypatch.setattr(synthetic, "synthetic_trace", boom)
        reader = ProgramCache(tmp_path)
        program = compile_model("model4", config, cache=reader)
        assert program.model.startswith("model4")

    def test_entry_is_plain_json(self, tmp_path, config):
        cache = ProgramCache(tmp_path)
        compile_model("model4", config, cache=cache)
        key = program_key("model4", config, PassConfig(), seed=0)
        payload = json.loads(cache.path_for(key).read_text())
        clone = Program.from_dict(payload)
        assert clone.model.startswith("model4")

    def test_memory_only_cache_writes_nothing(self, tmp_path, config):
        cache = ProgramCache(None)
        compile_model("model4", config, cache=cache)
        assert cache.path_for("00" * 32) is None
        assert list(tmp_path.iterdir()) == []


class TestGc:
    """Disk gc is the store contract (tests/test_store.py); without a
    disk there is nothing to collect."""

    def test_memory_only_gc_is_a_noop(self):
        assert ProgramCache(None).gc(0) == GcResult(0, 0, 0)


class TestCompileModel:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            compile_model("model99", cache=ProgramCache(None))

    def test_pass_spec_string_accepted(self, config):
        cache = ProgramCache(None)
        program = compile_model(
            "model4", config, passes="packing+stratify", cache=cache
        )
        assert "schedule" not in program.passes

    def test_seed_changes_program(self, config):
        cache = ProgramCache(None)
        a = compile_model("model4", config, seed=0, cache=cache)
        b = compile_model("model4", config, seed=1, cache=cache)
        assert a.serial_latency_s != b.serial_latency_s
