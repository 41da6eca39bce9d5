"""Candidate routing pinned to the full list scan.

``least_work`` and ``sparsity`` route over a shard's live chips plus each
chip kind's first idle host (``repro.cluster.admission.CandidateIndex``).
The oracle is the scan it replaced: ``eligible_chips`` over every chip of
the shard, then ``policy.choose`` on that list.  Every arrival's chip
must be the same object, in whole cluster runs and in a Hypothesis
property over tie-heavy stub shards.
"""

import copy

import pytest

from repro import obs
from repro.cluster import (
    AdmissionConfig,
    AutoscaleConfig,
    ChipSpec,
    FleetSpec,
    ShardingConfig,
    eligible_chips,
    homogeneous_fleet,
    make_policy,
    parse_fleet,
    simulate_cluster_sharded,
)
from repro.cluster.admission import CandidateIndex
from repro.cluster.sharding import ShardState
from repro.serve import (
    Request,
    SchedulerConfig,
    flash_crowd_arrivals,
    request_profile,
)

MIX = "model2:0.4+model4:0.6"


class RouteLog:
    """What the checked front door saw, for coverage assertions."""

    def __init__(self):
        self.routes = 0          # arrivals routed through the candidates
        self.idle_picks = 0      # ... that landed on a chip not yet live
        self.full_seen = 0       # ... with a full live chip in the shard
        self.shed = 0            # ... with no eligible chip at all
        self.bound = 0           # sum of live chips + kinds per arrival


def check_every_route(monkeypatch) -> RouteLog:
    """Assert each arrival's chip is the full scan's chip, and that the
    index holds its invariant after every step."""
    log = RouteLog()
    route = ShardState._route
    step = ShardState.step

    def checked_route(self, request):
        oracle = copy.copy(self.policy).choose(
            request, eligible_chips(request, self.chips)
        )
        live = set(self._index.live)
        chip = route(self, request)
        assert chip is oracle
        if not self.policy.scans_fleet:
            log.routes += 1
            log.bound += len(live) + len({c.kind for c in self.chips})
            if chip is None:
                log.shed += 1
            elif self._slots[chip] not in live:
                log.idle_picks += 1
            if any(not self.chips[p].has_queue_capacity() for p in live):
                log.full_seen += 1
        return chip

    def checked_step(self, *args, **kwargs):
        digest = step(self, *args, **kwargs)
        index = self._index
        for position, chip in enumerate(self.chips):
            filed = any(
                position in index._idle.get(model, {}).get(chip.kind, ())
                for model in chip.profiles
            )
            if position in index.live:
                assert not filed
            else:
                # Not live: idle with exactly 0.0 outstanding work, and
                # filed under each hosted model iff still accepting.
                assert chip.idle and chip.outstanding_s == 0.0
                assert filed == (chip.accepting and bool(chip.profiles))
        return digest

    monkeypatch.setattr(ShardState, "_route", checked_route)
    monkeypatch.setattr(ShardState, "step", checked_step)
    return log


@pytest.fixture(scope="module")
def latency():
    return request_profile("model4").single_latency_s


def crowd(latency, n=240, load=0.3, seed=4):
    return flash_crowd_arrivals(
        n, load / latency, MIX, seed=seed,
        spike_at_s=0.01, spike_duration_s=0.015, spike_factor=8.0,
    )


@pytest.mark.parametrize("policy", ["least_work", "sparsity", "round_robin"])
@pytest.mark.parametrize("mode", ["static", "continuous"])
def test_schedulers(monkeypatch, latency, mode, policy):
    log = check_every_route(monkeypatch)
    stream = crowd(latency)
    report = simulate_cluster_sharded(
        stream, homogeneous_fleet(6),
        SchedulerConfig(max_batch=2, max_inflight=2, mode=mode),
        policy=policy,
        sharding=ShardingConfig(num_shards=2, window_s=0.004),
    )
    assert report.served == len(stream)
    if policy != "round_robin":
        assert log.routes == len(stream)
        assert 0 < log.idle_picks < log.routes


@pytest.mark.parametrize("policy", ["least_work", "sparsity"])
def test_autoscaled_add_and_drain(monkeypatch, latency, policy):
    log = check_every_route(monkeypatch)
    stream = crowd(latency, n=300)
    report = simulate_cluster_sharded(
        stream, homogeneous_fleet(4),
        SchedulerConfig(max_batch=2, max_inflight=2),
        policy=policy,
        autoscale=AutoscaleConfig(
            interval_s=20 * latency, high_pressure=0.5,
            low_pressure=0.05, max_chips=12,
        ),
        sharding=ShardingConfig(num_shards=2, window_s=0.01),
    )
    assert {event.action for event in report.scaling_events} == {"add", "drain"}
    assert log.routes == len(stream)


@pytest.mark.parametrize("queue_capacity", [1, 2])
@pytest.mark.parametrize("policy", ["least_work", "sparsity"])
def test_bounded_queues(monkeypatch, latency, policy, queue_capacity):
    log = check_every_route(monkeypatch)
    stream = crowd(latency, load=0.6)
    report = simulate_cluster_sharded(
        stream, homogeneous_fleet(4), SchedulerConfig(max_inflight=1),
        policy=policy,
        admission=AdmissionConfig(queue_capacity=queue_capacity),
        sharding=ShardingConfig(num_shards=2, window_s=0.004),
    )
    assert report.shed > 0 and log.shed == report.shed
    assert log.full_seen > 0


@pytest.mark.parametrize("policy", ["sparsity", "least_work"])
def test_heterogeneous_fleet(monkeypatch, latency, policy):
    log = check_every_route(monkeypatch)
    stream = crowd(latency, n=300, load=0.5, seed=7)
    fleet = parse_fleet("dense_heavy:3+sparse_heavy:3+standard:2")
    simulate_cluster_sharded(
        stream, fleet, SchedulerConfig(max_batch=2, max_inflight=2),
        policy=policy,
        sharding=ShardingConfig(num_shards=2, window_s=0.004),
    )
    assert log.routes == len(stream)
    assert 0 < log.idle_picks < log.routes


def test_placement_restricted_fleet(monkeypatch, latency):
    log = check_every_route(monkeypatch)
    fleet = FleetSpec((
        ChipSpec(models=("model2",)),
        ChipSpec(kind="dense_heavy", models=("model4",)),
        ChipSpec(models=("model2", "model4")),
        ChipSpec(kind="sparse_heavy", models=("model4",)),
        ChipSpec(kind="sparse_heavy", models=("model2",)),
    ))
    stream = crowd(latency, n=200, seed=2)
    simulate_cluster_sharded(
        stream, fleet, SchedulerConfig(max_inflight=2), policy="sparsity",
        admission=AdmissionConfig(queue_capacity=2),
        sharding=ShardingConfig(num_shards=1, window_s=0.004),
    )
    assert log.routes == len(stream)


class TestChipsScannedCounter:
    @pytest.fixture
    def metrics(self):
        obs.disable()
        obs.registry.reset()
        obs.enable(trace=False, metrics=True)
        yield obs.registry
        obs.disable()
        obs.registry.reset()

    def run(self, latency, policy):
        stream = crowd(latency, n=200, seed=1)
        simulate_cluster_sharded(
            stream, homogeneous_fleet(16), SchedulerConfig(max_inflight=2),
            policy=policy,
            sharding=ShardingConfig(num_shards=2, window_s=0.005),
        )
        return stream

    def test_round_robin_scans_every_chip(self, metrics, latency):
        stream = self.run(latency, "round_robin")
        scanned = metrics.counter("cluster.route.chips_scanned").value
        assert scanned == 8 * len(stream)   # 8 chips per shard

    def test_least_work_scans_live_chips_and_kinds(
        self, metrics, monkeypatch, latency
    ):
        log = check_every_route(monkeypatch)
        stream = self.run(latency, "least_work")
        scanned = metrics.counter("cluster.route.chips_scanned").value
        assert log.routes == len(stream)
        assert 0 < scanned <= log.bound < 8 * len(stream)


# ----------------------------------------------------------------------
# Hypothesis: tie-heavy stub shards
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MODELS = ("m1", "m2")
# Service estimates per (kind, model): 0.5 + 0.5 == 0.0 + 1.0, so
# sparsity keys tie across kinds and loads.
ESTIMATES = {
    "a": {"m1": 1.0, "m2": 0.5},
    "b": {"m1": 1.0, "m2": 1.0},
    "c": {"m1": 0.5, "m2": 1.0},
}
DRIFT = 0.1 + 0.2 - 0.3   # 5.55e-17: an idle chip's rounding residue
# Outstanding work left after a completion: exact zeros, coarse ties,
# and drift either side of zero (absorbed when a service time is added).
LOADS = (0.0, 0.0, 0.5, 1.0, DRIFT, -DRIFT)


class StubChip:
    """The slice of the ChipServer interface routing and the index read."""

    def __init__(self, kind, models, capacity):
        self.kind = kind
        self.profiles = {model: ESTIMATES[kind][model] for model in models}
        self.queue_capacity = capacity
        self.depth = 0
        self.outstanding_s = 0.0
        self.accepting = True

    def hosts(self, model):
        return model in self.profiles

    def has_queue_capacity(self):
        return self.queue_capacity is None or self.depth < self.queue_capacity

    def service_estimate_s(self, model):
        return self.profiles[model]


chip_specs = st.tuples(
    st.sampled_from(sorted(ESTIMATES)),
    st.sampled_from([("m1",), ("m2",), MODELS, MODELS]),
)
operations = st.lists(
    st.tuples(
        st.sampled_from(["route", "route", "route", "finish", "settle",
                         "drain", "add"]),
        st.integers(0, 63),
        st.sampled_from(MODELS),
        st.sampled_from(LOADS),
        chip_specs,
    ),
    min_size=1,
    max_size=80,
)


@hypothesis.given(
    policy=st.sampled_from(["least_work", "sparsity"]),
    capacity=st.sampled_from([None, 1, 2]),
    specs=st.lists(chip_specs, min_size=1, max_size=12),
    ops=operations,
)
def test_candidates_pick_the_full_scans_chip(policy, capacity, specs, ops):
    chooser = make_policy(policy)
    chips: list[StubChip] = []
    index = CandidateIndex(chips)

    def add(kind, models):
        chips.append(StubChip(kind, models, capacity))
        index.settled(len(chips) - 1)

    for kind, models in specs:
        add(kind, models)
    for action, slot, model, load, spec in ops:
        position = slot % len(chips)
        chip = chips[position]
        if action == "route":
            request = Request(index=0, model=model, arrival_s=0.0)
            oracle = chooser.choose(request, eligible_chips(request, chips))
            candidates, scanned = index.candidates(model)
            assert chooser.choose(request, candidates) is oracle
            assert scanned <= len(index.live) + len(ESTIMATES)
            if oracle is not None:
                oracle.depth += 1
                oracle.outstanding_s += oracle.service_estimate_s(model)
                index.enqueued(chips.index(oracle))
        elif action == "finish" and chip.depth:
            chip.depth -= 1
            chip.outstanding_s = load if chip.depth == 0 else 1.0 + load
        elif action == "settle":
            for live in sorted(index.live):
                if chips[live].depth == 0 and chips[live].outstanding_s == 0.0:
                    index.settled(live)
        elif action == "drain" and chip.accepting:
            chip.accepting = False
            index.drained(position)
        elif action == "add":
            add(*spec)


def test_index_files_idle_hosts_in_fleet_order():
    chips = [
        StubChip("a", MODELS, None),
        StubChip("b", ("m1",), None),
        StubChip("a", ("m2",), None),
        StubChip("b", MODELS, None),
    ]
    index = CandidateIndex(chips)
    for position in range(len(chips)):
        index.settled(position)
    assert index.candidates("m1") == ([chips[0], chips[1]], 2)
    index.enqueued(0)
    chips[0].outstanding_s = 1.0
    assert index.candidates("m1") == ([chips[0], chips[1]], 2)
    assert index.candidates("m2") == ([chips[0], chips[2], chips[3]], 3)
    chips[0].accepting = chips[1].accepting = False
    index.drained(0)
    index.drained(1)
    assert index.candidates("m1") == ([chips[3]], 2)
    index.settled(0)   # not accepting: never filed again
    assert index.candidates("m1") == ([chips[3]], 1)
    assert index.candidates("m2") == ([chips[2], chips[3]], 2)
