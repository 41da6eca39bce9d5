"""Candidate routing pinned to the full list scan.

``least_work`` and ``sparsity`` route over a shard's live chips plus each
chip kind's first idle host (``repro.cluster.admission.CandidateIndex``).
``CandidateIndex.least`` takes the policy's least key in one pass over
them.  The oracle is the scan it replaced: ``eligible_chips`` over every
chip of the shard, then the policy's ``min`` over that list.  Every
arrival's chip must be the same object, in whole cluster runs and in a
Hypothesis property over tie-heavy stub shards, and the pass must
inspect exactly the live chips plus one idle host per kind.
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
        self.queue_depth = 0
        self.outstanding_s = 0.0
        self.accepting = True

    def hosts(self, model):
        return model in self.profiles

    def has_queue_capacity(self):
        return (
            self.queue_capacity is None
            or self.queue_depth < self.queue_capacity
        )

    def service_estimate_s(self, model):
        return self.profiles[model]


def full_scan(policy, index, chips, model):
    """The reference: ``min`` of the policy's key over every eligible
    chip in fleet order, and the count of chips the index inspects —
    every live chip plus one per kind with an accepting idle host."""
    request = Request(index=0, model=model, arrival_s=0.0)
    eligible = eligible_chips(request, chips)
    chip = (
        min(eligible, key=lambda chip: policy.key(chip, model))
        if eligible
        else None
    )
    kinds = {
        c.kind
        for position, c in enumerate(chips)
        if position not in index.live and c.accepting and c.hosts(model)
    }
    return chip, len(index.live) + len(kinds)


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
def test_least_picks_the_full_scans_chip(policy, capacity, specs, ops):
    chooser = make_policy(policy)
    chips: list[StubChip] = []
    index = CandidateIndex(chips, capacity)

    def add(kind, models):
        chips.append(StubChip(kind, models, capacity))
        index.settled(len(chips) - 1)

    for kind, models in specs:
        add(kind, models)
    for action, slot, model, load, spec in ops:
        position = slot % len(chips)
        chip = chips[position]
        if action == "route":
            oracle, expected_scanned = full_scan(chooser, index, chips, model)
            picked, scanned = index.least(chooser.key, model)
            assert picked is oracle
            assert scanned == expected_scanned
            if oracle is not None:
                oracle.queue_depth += 1
                oracle.outstanding_s += oracle.service_estimate_s(model)
                index.enqueued(chips.index(oracle))
        elif action == "finish" and chip.queue_depth:
            chip.queue_depth -= 1
            chip.outstanding_s = load if chip.queue_depth == 0 else 1.0 + load
        elif action == "settle":
            for live in sorted(index.live):
                if (
                    chips[live].queue_depth == 0
                    and chips[live].outstanding_s == 0.0
                ):
                    index.settled(live)
        elif action == "drain" and chip.accepting:
            chip.accepting = False
            index.drained(position)
        elif action == "add":
            add(*spec)


def stub_shard(specs, capacity=None):
    chips = [StubChip(kind, models, capacity) for kind, models in specs]
    index = CandidateIndex(chips, capacity)
    for position in range(len(chips)):
        index.settled(position)
    return chips, index


def make_live(index, chips, position, outstanding_s, depth=1):
    index.enqueued(position)
    chips[position].queue_depth = depth
    chips[position].outstanding_s = outstanding_s


@pytest.mark.parametrize("capacity", [None, 1, 2])
@pytest.mark.parametrize("drift", [DRIFT, -DRIFT, 1e-300, -1e-300])
def test_drifted_live_chips(capacity, drift):
    """A live chip that drained to a tiny ± residue is judged by its real
    key: below an idle host's ``0.0`` it wins, above it loses."""
    chips, index = stub_shard([("b", MODELS)] * 4, capacity)
    make_live(index, chips, 2, drift, depth=0)   # served out, residue left
    make_live(index, chips, 3, 1.0 + drift)
    policy = make_policy("least_work")
    chip, scanned = index.least(policy.key, "m1")
    assert (chip, scanned) == full_scan(policy, index, chips, "m1")
    assert chip is (chips[2] if drift < 0 else chips[0])
    assert scanned == 3   # two live chips, one idle kind


@pytest.mark.parametrize("capacity", [None, 1, 2])
@pytest.mark.parametrize("live_first", [True, False])
def test_sparsity_keys_that_round_equal(capacity, live_first):
    """``DRIFT + 1.0 == 0.0 + 1.0 == 0.5 + 0.5``: unequal loads with equal
    keys, live or idle, of either kind, go to the lowest position."""
    assert DRIFT + 1.0 == 1.0 and DRIFT > 0.0
    specs = [("b", MODELS)] * 2 + [("a", MODELS)] * 2
    chips, index = stub_shard(specs if live_first else specs[::-1], capacity)
    b_chips = [p for p, chip in enumerate(chips) if chip.kind == "b"]
    a_chips = [p for p, chip in enumerate(chips) if chip.kind == "a"]
    policy = make_policy("sparsity")

    def least(model):
        picked, scanned = index.least(policy.key, model)
        assert (picked, scanned) == full_scan(policy, index, chips, model)
        return picked

    # m1 costs 1.0 on both kinds: a live b chip at DRIFT, b's idle host
    # and a's idle host all key 1.0.
    make_live(index, chips, b_chips[0], DRIFT, depth=0)
    assert least("m1") is chips[0]
    # m2 costs 0.5 on a: a loaded a chip at 0.5 + 0.5 ties the b chips
    # and loses to the idle a host at 0.0 + 0.5.
    make_live(index, chips, a_chips[0], 0.5)
    assert least("m2") is chips[a_chips[1]]
    # Both a chips loaded: every eligible chip keys 1.0.
    make_live(index, chips, a_chips[1], 0.5)
    first = next(chip for chip in chips if chip.has_queue_capacity())
    assert least("m2") is first


def test_index_files_idle_hosts_in_fleet_order():
    chips, index = stub_shard([
        ("a", MODELS), ("b", ("m1",)), ("a", ("m2",)), ("b", MODELS),
    ])
    key = make_policy("least_work").key
    assert index.least(key, "m1") == (chips[0], 2)
    make_live(index, chips, 0, 1.0)
    assert index.least(key, "m1") == (chips[1], 2)
    assert index.least(key, "m2") == (chips[2], 3)
    chips[0].accepting = chips[1].accepting = False
    index.drained(0)
    index.drained(1)
    assert index.least(key, "m1") == (chips[3], 2)
    index.settled(0)   # not accepting: never filed again
    assert index.least(key, "m1") == (chips[3], 1)
    assert index.least(key, "m2") == (chips[2], 2)
    assert index.least(key, "m3") == (None, 0)


def test_full_live_chip_is_not_eligible():
    chips, index = stub_shard([("a", MODELS), ("b", MODELS)], capacity=1)
    make_live(index, chips, 0, -DRIFT)   # least key, but its queue is full
    key = make_policy("least_work").key
    assert index.least(key, "m1") == (chips[1], 2)
    chips[1].accepting = False
    index.drained(1)
    assert index.least(key, "m1") == (None, 1)
