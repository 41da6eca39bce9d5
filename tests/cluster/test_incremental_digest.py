"""Incremental window digests pinned to the full chip scan.

``ShardState.step`` reads only the live chips (enqueued into since they
were last idle with ``outstanding_s == 0.0``) and keeps the accepting
and per-model host counts as tallies.  After every window these tests
recompute the digest fields the way the full scan did — every chip, in
fleet order — and require ``==``; ``_drainable_victim`` is pinned to the
all-pairs loop it replaced.
"""

import random

import pytest

from repro import obs
from repro.cluster import (
    AdmissionConfig,
    AutoscaleConfig,
    ChipSpec,
    FleetSpec,
    ShardingConfig,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.cluster.sharding import ShardInit, ShardState
from repro.serve import SchedulerConfig, flash_crowd_arrivals, request_profile

MIX = "model2:0.4+model4:0.6"


def full_scan(state: ShardState) -> dict:
    """The digest fields as read from every chip of the shard."""
    accepting = [chip for chip in state.chips if chip.accepting]
    hosted: set[str] = set()
    for chip in accepting:
        if chip.has_queue_capacity():
            hosted.update(chip.profiles)
    return dict(
        pending=sum(chip.queue_depth for chip in state.chips),
        inflight=sum(chip.inflight for chip in state.chips),
        outstanding_s=sum(chip.outstanding_s for chip in accepting),
        accepting_chips=len(accepting),
        hosted_models=tuple(sorted(hosted)),
    )


def brute_force_victim(state: ShardState):
    """Least-loaded accepting chip whose models another accepting chip
    hosts, first in fleet order on ties: the all-pairs loop."""
    accepting = [chip for chip in state.chips if chip.accepting]
    candidates = []
    for chip in accepting:
        others = [c for c in accepting if c is not chip]
        if all(
            any(other.hosts(model) for other in others)
            for model in chip.profiles
        ):
            candidates.append(chip)
    if not candidates:
        return None
    return min(candidates, key=lambda c: c.outstanding_s)


def check_every_step(monkeypatch) -> None:
    """Assert the digest == the full scan after every step."""
    step = ShardState.step

    def checked(self, *args, **kwargs):
        digest = step(self, *args, **kwargs)
        scan = full_scan(self)
        assert {name: getattr(digest, name) for name in scan} == scan
        assert self._drainable_victim() is brute_force_victim(self)
        return digest

    monkeypatch.setattr(ShardState, "step", checked)


@pytest.fixture(scope="module")
def latency():
    return request_profile("model4").single_latency_s


@pytest.mark.parametrize("queue_capacity", [None, 2])
@pytest.mark.parametrize("mode", ["static", "continuous"])
@pytest.mark.parametrize("shards", [1, 2])
def test_digest_equals_the_full_scan(
    monkeypatch, latency, shards, mode, queue_capacity
):
    check_every_step(monkeypatch)
    stream = flash_crowd_arrivals(
        300, 0.3 / latency, MIX, seed=4,
        spike_at_s=0.01, spike_duration_s=0.015, spike_factor=8.0,
    )
    report = simulate_cluster_sharded(
        stream, homogeneous_fleet(2 * shards),
        SchedulerConfig(max_batch=2, max_inflight=2, mode=mode),
        admission=AdmissionConfig(queue_capacity=queue_capacity),
        autoscale=AutoscaleConfig(
            interval_s=20 * latency, high_pressure=0.5,
            low_pressure=0.05, max_chips=6 * shards,
        ),
        sharding=ShardingConfig(num_shards=shards, window_s=0.01),
    )
    actions = {event.action for event in report.scaling_events}
    assert actions == {"add", "drain"}
    assert report.served + report.shed == len(stream)
    if queue_capacity is not None:
        assert report.shed > 0   # full queues drop models from hosted


def test_placement_restricted_fleet(monkeypatch, latency):
    """A model on one chip only keeps that chip from being drained."""
    check_every_step(monkeypatch)
    fleet = FleetSpec((
        ChipSpec(models=("model2",)),
        ChipSpec(models=("model4",)),
        ChipSpec(models=("model2", "model4")),
        ChipSpec(models=("model4",)),
    ))
    stream = flash_crowd_arrivals(
        200, 0.2 / latency, MIX, seed=2,
        spike_at_s=0.01, spike_duration_s=0.01, spike_factor=6.0,
    )
    report = simulate_cluster_sharded(
        stream, fleet, SchedulerConfig(max_inflight=2),
        autoscale=AutoscaleConfig(
            interval_s=20 * latency, high_pressure=0.5, low_pressure=0.05,
            max_chips=6,
        ),
        sharding=ShardingConfig(num_shards=1, window_s=0.01),
    )
    assert "drain" in {event.action for event in report.scaling_events}


class TestDrainableVictim:
    PLACEMENTS = (
        ("model2",), ("model4",), None, ("model2", "model4"),
        ("model4",), None, ("model2",),
    )

    @pytest.mark.parametrize("seed", range(12))
    def test_same_victim_as_the_all_pairs_loop(self, seed):
        rng = random.Random(seed)
        shard = ShardState(ShardInit(
            shard=0,
            chip_names=tuple(f"chip{i}" for i in range(len(self.PLACEMENTS))),
            chip_kinds=("standard",) * len(self.PLACEMENTS),
            chip_models=self.PLACEMENTS,
            workload_models=("model2", "model4"),
            policy="least_work",
            scheduler=SchedulerConfig(),
            queue_capacity=None,
            bs_t=2, bs_n=4, seed=0, passes=None,
        ))
        for step in range(8):
            # Loads on a coarse grid, so ties (fleet order) are common.
            for chip in shard.chips:
                chip.outstanding_s = rng.choice([0.0, 0.5, 0.5, 1.0])
            victim = shard._drainable_victim()
            assert victim is brute_force_victim(shard)
            if rng.random() < 0.25:
                shard._apply(("add", 0.0, "standard", f"added{step}"))
            elif victim is not None:
                assert shard._apply(("drain", 0.0)) == ("drain", victim.name)
            assert full_scan(shard)["accepting_chips"] == shard._accepting


class TestCounters:
    @pytest.fixture
    def metrics(self):
        obs.disable()
        obs.registry.reset()
        obs.enable(trace=False, metrics=True)
        yield obs.registry
        obs.disable()
        obs.registry.reset()

    def test_steps_and_chips_scanned(self, metrics, monkeypatch, latency):
        steps: list[int] = []
        step = ShardState.step

        def counted(self, *args, **kwargs):
            steps.append(len(self.chips))
            return step(self, *args, **kwargs)

        monkeypatch.setattr(ShardState, "step", counted)
        stream = flash_crowd_arrivals(
            200, 0.3 / latency, MIX, seed=1,
            spike_at_s=0.01, spike_duration_s=0.01, spike_factor=6.0,
        )
        simulate_cluster_sharded(
            stream, homogeneous_fleet(8), SchedulerConfig(max_inflight=2),
            sharding=ShardingConfig(num_shards=2, window_s=0.005),
        )
        assert metrics.counter("cluster.shard.steps").value == len(steps)
        scanned = metrics.counter("cluster.digest.chips_scanned").value
        assert 0 < scanned < sum(steps) / 2   # well under every chip
