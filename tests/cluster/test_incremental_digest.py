"""Incremental window digests pinned to the full chip scan.

``ShardState.step`` reads only the live chips (enqueued into since they
were last idle with ``outstanding_s == 0.0``) and keeps the accepting
and per-model host counts as tallies.  After every window these tests
recompute the digest fields the way the full scan did — every chip, in
fleet order — and require ``==``; ``_drainable_victim`` is pinned to the
all-pairs loop it replaced.  A digest carries its window's raw samples:
folding them into the fleet sketches with ``add_many`` is pinned to
merging per-window sketches, and a few-sample digest pickles small.
"""

import pickle
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
from repro.serve.sketch import LatencySketch

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


@pytest.mark.parametrize("seed", range(6))
def test_folding_samples_equals_merging_window_sketches(seed):
    """The coordinator's ``add_many`` of each digest's samples builds the
    same sketch, field for field, as merging a sketch built per shard
    window: the same per-window sum is added in the same order, and bin
    counts are integers."""
    rng = random.Random(seed)
    merged, folded = LatencySketch(), LatencySketch()
    for _ in range(30):
        for _ in range(3):   # shards, in shard order
            size = rng.choice([0, 0, 1, 2, 3, 7, 8, 9, 40])
            samples = tuple(
                rng.lognormvariate(-7.0, 1.5) for _ in range(size)
            )
            window = LatencySketch()
            window.add_many(list(samples))
            merged.update(window)
            folded.add_many(samples)
    assert folded.to_dict() == merged.to_dict()
    assert (folded.count, folded.sum_s, folded.min_s, folded.max_s) == (
        merged.count, merged.sum_s, merged.min_s, merged.max_s
    )


def test_few_sample_digest_pickles_small(monkeypatch, latency):
    """A digest's payload scales with its window's completions: one with
    under 8 samples pickles to under 1 KB."""
    digests = []
    step = ShardState.step

    def captured(self, *args, **kwargs):
        digest = step(self, *args, **kwargs)
        digests.append(digest)
        return digest

    monkeypatch.setattr(ShardState, "step", captured)
    stream = flash_crowd_arrivals(
        120, 0.3 / latency, MIX, seed=3,
        spike_at_s=0.01, spike_duration_s=0.01, spike_factor=6.0,
    )
    simulate_cluster_sharded(
        stream, homogeneous_fleet(4), SchedulerConfig(max_inflight=2),
        sharding=ShardingConfig(num_shards=2, window_s=0.002),
    )
    few = [d for d in digests if 0 < len(d.latency) < 8]
    assert few
    for digest in few:
        assert len(digest.latency) == len(digest.wait) == digest.window_served
        assert len(pickle.dumps(digest)) < 1024
