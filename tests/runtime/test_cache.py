"""Result-cache unit tests: keying and the entry codec.

The store contract (layout, atomic put, self-healing, gc) is tested for
both caches in tests/test_store.py.
"""

import json

import pytest

from repro.runtime import CacheEntry, ResultCache, cache_key, config_hash


def make_entry(result=None, experiment="fig17"):
    params = {"seed": 0}
    return CacheEntry(
        experiment=experiment,
        params=params,
        code_hash="c" * 64,
        config_hash=config_hash(params),
        result=result if result is not None else {"x": 1.5},
    )


class TestHashing:
    def test_config_hash_is_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_config_hash_distinguishes_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_cache_key_varies_on_every_component(self):
        base = cache_key("fig3", "code", "cfg")
        assert base != cache_key("fig5", "code", "cfg")
        assert base != cache_key("fig3", "code2", "cfg")
        assert base != cache_key("fig3", "code", "cfg2")

    def test_cache_key_components_do_not_bleed(self):
        # concatenation ambiguity: ("ab", "c") must differ from ("a", "bc")
        assert cache_key("ab", "c", "x") != cache_key("a", "bc", "x")


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def test_put_get_round_trip(self, cache):
        entry = make_entry()
        key = cache_key(entry.experiment, entry.code_hash, entry.config_hash)
        cache.put(key, entry)
        assert key in cache
        loaded = cache.get(key)
        assert loaded == entry
        assert cache.entry_count() == 1

    def test_entry_missing_fields_is_a_miss(self, cache):
        entry = make_entry()
        key = cache_key(entry.experiment, entry.code_hash, entry.config_hash)
        path = cache.put(key, entry)
        path.write_text(json.dumps({"experiment": "fig17"}))
        assert cache.get(key) is None
        assert not path.exists()

    def test_experiment_mismatch_is_a_miss(self, cache):
        entry = make_entry(experiment="fig17")
        key = cache_key(entry.experiment, entry.code_hash, entry.config_hash)
        cache.put(key, entry)
        assert cache.get(key, experiment_id="fig3") is None
        assert key not in cache