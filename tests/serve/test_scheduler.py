"""Batch-forming and scheduler-config semantics."""

import pytest

from repro.serve import (
    ReadyPool,
    Request,
    SchedulerConfig,
    StageEntry,
    take_batch,
)


def reqs(*models):
    """A static-mode ready pool, as the chip's scheduler holds it."""
    pool = ReadyPool(SchedulerConfig())
    for i, m in enumerate(models):
        pool.insert(StageEntry(
            request=Request(index=i, model=m, arrival_s=float(i)),
            total_stages=1,
            order=i,
        ))
    return pool


def indices(entries):
    return [e.request.index for e in entries]


class TestSchedulerConfig:
    def test_policy_label(self):
        assert SchedulerConfig(max_batch=1).policy == "fifo"
        assert SchedulerConfig(max_batch=4).policy == "batch"

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_inflight=0)


class TestTakeBatch:
    def test_fifo_takes_head_only(self):
        pending = reqs("model4", "model4", "model4")
        batch = take_batch(pending, max_batch=1)
        assert indices(batch) == [0]
        assert len(pending) == 2

    def test_merges_same_model(self):
        pending = reqs("model4", "model4", "model4")
        batch = take_batch(pending, max_batch=8)
        assert indices(batch) == [0, 1, 2]
        assert not pending

    def test_respects_max_batch(self):
        pending = reqs("model4", "model4", "model4", "model4")
        batch = take_batch(pending, max_batch=2)
        assert indices(batch) == [0, 1]
        assert indices(pending) == [2, 3]

    def test_other_models_keep_queue_positions(self):
        pending = reqs("model4", "model2", "model4", "model2")
        batch = take_batch(pending, max_batch=4)
        assert indices(batch) == [0, 2]
        assert indices(pending) == [1, 3]
        assert all(e.request.model == "model2" for e in pending)

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError):
            take_batch(ReadyPool(SchedulerConfig()), max_batch=1)
