"""The JSON store contract, checked on both caches built on it.

``ResultCache`` and ``ProgramCache`` share one on-disk store
(:mod:`repro.store`); every check here runs against each.  Codec-specific
behaviour (experiment-id checks, the memory layer) is tested next to each
cache.
"""

import os
import time

import pytest

from repro import obs
from repro.compiler import ProgramCache
from repro.compiler.ir import Program, Stage, TileOp
from repro.runtime import CacheEntry, GcResult, ResultCache, StoreStats
from repro.store import TMP_ORPHAN_AGE_S

ENTRY = CacheEntry(
    experiment="fig17",
    params={"seed": 0},
    code_hash="c" * 64,
    config_hash="d" * 64,
    result={"x": 1.5, "rows": [1, 2]},
)
PROGRAM = Program(
    model="model4",
    stages=(
        Stage(
            index=0, block=0, kind="proj_q", phase="block",
            ops=(TileOp("dense_core", 1.5e-06, 2, 64.0, "weight"),),
            annotations={"dynamic_pj": 3.0},
        ),
    ),
    passes=("packing",),
    chip={"name": "standard"},
    meta={"seed": 0},
)

# The exact entry text each store writes for the payloads above.  Any
# change to it orphans every entry already on disk.
RESULT_TEXT = (
    '{\n  "code_hash": "' + "c" * 64 + '",\n  "config_hash": "' + "d" * 64
    + '",\n  "experiment": "fig17",\n  "params": {\n    "seed": 0\n  },\n'
    '  "result": {\n    "rows": [\n      1,\n      2\n    ],\n'
    '    "x": 1.5\n  }\n}\n'
)
PROGRAM_TEXT = (
    '{"chip": {"name": "standard"}, "meta": {"seed": 0}, "model": "model4",'
    ' "passes": ["packing"], "stages": [{"annotations": {"dynamic_pj": 3.0},'
    ' "block": 0, "index": 0, "kind": "proj_q", "ops": [{"bytes": 64.0,'
    ' "core": "dense_core", "duration_s": 1.5e-06, "tag": "weight",'
    ' "tiles": 2}], "phase": "block"}]}'
)

CASES = {
    "result": (ResultCache, ENTRY, RESULT_TEXT),
    "program": (ProgramCache, PROGRAM, PROGRAM_TEXT),
}


@pytest.fixture(params=sorted(CASES))
def case(request, tmp_path):
    """(store, payload, entry text) for one cache."""
    factory, payload, text = CASES[request.param]
    return factory(tmp_path / "store"), payload, text


@pytest.fixture
def counter():
    """Read a counter of the (freshly reset) metrics registry."""
    obs.registry.reset()
    obs.registry.enable()
    yield lambda name: obs.registry.to_dict()["counters"].get(name, {}).get("value", 0)
    obs.registry.disable()
    obs.registry.reset()


def key(index: int) -> str:
    return f"{index:02x}" + "ab" * 31  # one shard per index


def fill(store, payload, count: int) -> None:
    """``count`` entries; ``key(0)`` is the newest, each next one a second older."""
    now = time.time()
    for index in range(count):
        path = store.put(key(index), payload)
        os.utime(path, (now - index, now - index))


def shards(store) -> list[str]:
    return sorted(path.name for path in store.root.iterdir())


def test_entry_text_is_the_stored_format(case):
    store, payload, text = case
    path = store.put(key(0), payload)
    assert path == store.root / key(0)[:2] / f"{key(0)}.json"
    assert path.read_text() == text
    assert type(store)(store.root).get(key(0)) == payload


def test_put_leaves_no_tmp(case):
    store, payload, _ = case
    path = store.put(key(0), payload)
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_missing_entry_is_a_miss(case, counter):
    store, _, _ = case
    assert store.get(key(0)) is None
    assert key(0) not in store
    assert counter(f"cache.{store.name}.miss") == 1


@pytest.mark.parametrize(
    "damage",
    [b"{truncated json", b'{"unexpected": 1}', b"[1, 2]", b"\xff\xfe"],
    ids=["truncated", "missing-fields", "wrong-type", "not-utf8"],
)
def test_corrupt_entry_is_a_deleted_miss(case, counter, damage):
    store, payload, _ = case
    path = store.put(key(0), payload)
    path.write_bytes(damage)
    fresh = type(store)(store.root)  # no memory layer in front of the disk
    assert fresh.get(key(0)) is None
    assert not path.exists()  # self-healed: the next put rewrites it
    assert counter(f"cache.{store.name}.corrupt") == 1
    assert counter(f"cache.{store.name}.miss") == 1
    assert counter(f"cache.{store.name}.hit") == 0


def test_gc_keeps_the_newest_and_prunes_empty_shards(case):
    store, payload, text = case
    fill(store, payload, 5)
    assert store.gc(2) == GcResult(kept=2, removed=3, freed_bytes=3 * len(text))
    assert shards(store) == [key(0)[:2], key(1)[:2]]
    assert [path.stem for path, _, _ in store.scan()] == [key(0), key(1)]
    assert store.gc(0) == GcResult(kept=0, removed=2, freed_bytes=2 * len(text))
    assert shards(store) == []


def test_gc_reclaims_a_stale_tmp_but_keeps_a_fresh_one(case):
    store, _, _ = case
    shard = store.root / "aa"
    shard.mkdir(parents=True)
    stale, fresh = shard / "stale.tmp", shard / "fresh.tmp"
    stale.write_text("{")
    fresh.write_text("{}")
    old = time.time() - TMP_ORPHAN_AGE_S - 5
    os.utime(stale, (old, old))
    assert store.gc(0) == GcResult(kept=0, removed=1, freed_bytes=1)
    assert not stale.exists()
    assert fresh.exists()  # may be a write in flight


def test_evict_counter_equals_removed(case, counter):
    store, payload, _ = case
    fill(store, payload, 3)
    orphan = store.root / key(0)[:2] / "orphan.tmp"
    orphan.write_text("{")
    old = time.time() - TMP_ORPHAN_AGE_S - 5
    os.utime(orphan, (old, old))
    result = store.gc(1)
    assert result.removed == 3
    assert counter(f"cache.{store.name}.evict") == result.removed


def test_gc_rejects_negative_keep(case):
    store, _, _ = case
    with pytest.raises(ValueError, match="keep_latest"):
        store.gc(-1)


def test_stats(case):
    store, payload, text = case
    assert store.stats() == StoreStats(store.name, 0, 0)  # root not created yet
    fill(store, payload, 3)
    assert store.stats() == StoreStats(store.name, 3, 3 * len(text))
    assert store.entry_count() == 3
