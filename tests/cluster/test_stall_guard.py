"""The coordinator's stall guard names the window and the stuck shards.

A shard that stays busy while serving and shedding nothing is a bug in
its engine, not a backlog; after ``_STALL_WINDOWS`` such windows in a
row the coordinator raises.  These tests fake one stuck shard by
rewriting its digests to report queued work and no progress.
"""

import dataclasses
import re

import pytest

from repro.cluster import (
    ShardingConfig,
    homogeneous_fleet,
    sharding,
    simulate_cluster_sharded,
)
from repro.cluster.sharding import ShardState
from repro.serve import poisson_arrivals


def stick_shard(monkeypatch, stuck: int) -> None:
    """Make shard ``stuck`` report one queued request and no progress."""
    step = ShardState.step

    def stepped(self, *args, **kwargs):
        digest = step(self, *args, **kwargs)
        if self.init.shard != stuck:
            return digest
        return dataclasses.replace(
            digest, pending=1, window_served=0, window_shed=0
        )

    monkeypatch.setattr(ShardState, "step", stepped)


def test_stall_message_names_window_and_busy_shard(monkeypatch):
    stick_shard(monkeypatch, stuck=1)
    monkeypatch.setattr(sharding, "_STALL_WINDOWS", 3)
    stream = poisson_arrivals(20, 2000.0, "model4", seed=1)
    with pytest.raises(RuntimeError, match="stalled") as raised:
        simulate_cluster_sharded(
            stream, homogeneous_fleet(2),
            sharding=ShardingConfig(num_shards=2, window_s=0.002),
        )
    message = str(raised.value)
    found = re.search(
        r"at window (\d+): busy shards \[1\] made no progress", message
    )
    assert found, message
    # Arrivals end within ~10 ms; the guard trips 4 windows after that.
    assert int(found.group(1)) > 3


def test_progress_resets_the_count(monkeypatch):
    """Windows with arrivals never count toward a stall."""
    stick_shard(monkeypatch, stuck=0)
    monkeypatch.setattr(sharding, "_STALL_WINDOWS", 3)
    stream = poisson_arrivals(40, 2000.0, "model4", seed=2)
    with pytest.raises(RuntimeError) as raised:
        simulate_cluster_sharded(
            stream, homogeneous_fleet(1),
            sharding=ShardingConfig(num_shards=1, window_s=0.0005),
        )
    window = int(re.search(r"at window (\d+)", str(raised.value)).group(1))
    last_arrival_window = int(stream[-1].arrival_s // 0.0005)
    assert window == last_arrival_window + 4
