"""Continuous batching: stage-boundary selection, preemption, WFQ, tenancy.

Scheduler-level tests drive :class:`ContinuousBatchScheduler` directly
(synthetic stage clock, no engine); simulation-level tests go through
``simulate_serving`` and check the report surface the experiments and
the cluster layer consume.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.serve import simulate as serve_simulate
from repro.serve import (
    ContinuousBatchScheduler,
    Request,
    SchedulerConfig,
    StageEntry,
    TenantSpec,
    poisson_arrivals,
    request_profile,
    simulate_serving,
    stage_serial_s,
    take_batch,
)

from .reference_scheduler import ReferenceScheduler

MODEL = "model4"
PASSES = "packing+stratify+ecp"


@pytest.fixture(scope="module")
def profiles():
    return {MODEL: request_profile(MODEL, passes=PASSES)}


def make_scheduler(profiles, tenants=(), **config):
    config.setdefault("mode", "continuous")
    return ContinuousBatchScheduler(
        SchedulerConfig(**config), profiles, tenants
    )


def request(i, tenant="", priority=0, model=MODEL):
    return Request(
        index=i, model=model, arrival_s=0.0, tenant=tenant, priority=priority
    )


def drain(sched, group=(), max_steps=100_000):
    """Run the scheduler on a synthetic stage clock until the pool dries.

    ``group`` is the lane's current in-flight group (the carry handed to
    the first ``select``).  Returns every completed entry, in order.
    """
    finished = []
    group = list(group)
    now = 0.0
    for _ in range(max_steps):
        group, stage, _preempted, _joined = sched.select(group)
        if not group:
            return finished
        now += 1.0
        done = sched.stage_done(group, stage, now)
        finished.extend(done)
        group = [e for e in group if not e.done]
    raise AssertionError("scheduler did not drain")


class TestConfig:
    def test_static_mode_runs_whole_program_groups(self, profiles):
        sched = ContinuousBatchScheduler(
            SchedulerConfig(max_batch=2), profiles, (TenantSpec("gold"),)
        )
        entries = [sched.add(request(i, tenant="gold")) for i in range(3)]
        group = take_batch(sched.pool, 2)
        assert sched.queue_depth == 1
        assert sched.program_done(group, 1.0) == entries[:2]
        assert all(e.done and e.max_group == 2 for e in group)
        latency = profiles[MODEL].single_latency_s
        assert sched.service_s == {"gold": 2 * latency}

    def test_policy_name(self):
        assert SchedulerConfig(mode="continuous").policy == "continuous"
        assert SchedulerConfig(max_batch=1).policy == "fifo"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SchedulerConfig(mode="warp")


class TestSelection:
    def test_empty_pool_returns_empty_group(self, profiles):
        sched = make_scheduler(profiles)
        assert sched.select([]) == ([], 0, [], 0)

    def test_fifo_order_within_one_tier(self, profiles):
        sched = make_scheduler(profiles, max_batch=1)
        for i in range(3):
            sched.add(request(i))
        finished = drain(sched)
        assert [e.request.index for e in finished] == [0, 1, 2]

    def test_group_capped_at_max_batch(self, profiles):
        sched = make_scheduler(profiles, max_batch=2)
        for i in range(5):
            sched.add(request(i))
        group, stage, _, _ = sched.select([])
        assert stage == 0
        assert len(group) == 2

    def test_queue_depth_counts_only_unstarted(self, profiles):
        sched = make_scheduler(profiles, max_batch=1)
        for i in range(3):
            sched.add(request(i))
        assert sched.queue_depth == 3
        group, stage, _, _ = sched.select([])
        assert sched.queue_depth == 2  # the head entered service
        sched.stage_done(group, stage, 1.0)
        # handing the started entry back to the pool keeps it in-flight,
        # not backlog — bounded admission must not count it
        sched.select(group)
        assert sched.queue_depth <= 2

    def test_every_stage_runs_exactly_once_in_order(self, profiles):
        sched = make_scheduler(profiles, max_batch=4)
        for i in range(6):
            sched.add(request(i))
        finished = drain(sched)
        assert len(finished) == 6
        for entry in finished:
            assert entry.executed == list(range(entry.total_stages))


class TestPreemption:
    def test_high_priority_displaces_at_boundary(self, profiles):
        sched = make_scheduler(profiles, max_batch=1)
        low = sched.add(request(0, priority=0))
        group, stage, preempted, _ = sched.select([])
        assert group == [low] and not preempted
        sched.stage_done(group, stage, 1.0)
        sched.add(request(1, priority=1))
        group, stage, preempted, _ = sched.select(group)
        assert group[0].request.index == 1
        assert preempted == [low]
        assert low.preemptions == 1
        assert low.completed == 1  # checkpoint survives the displacement

    def test_preempted_entry_resumes_at_checkpoint(self, profiles):
        sched = make_scheduler(profiles, max_batch=1)
        low = sched.add(request(0, priority=0))
        group, stage, _, _ = sched.select([])
        sched.stage_done(group, stage, 1.0)
        sched.add(request(1, priority=1))
        finished = drain(sched, group)
        assert {e.request.index for e in finished} == {0, 1}
        # no re-execution: the checkpointed stage list is still a
        # permutation-free, in-order enumeration of the model's stages
        assert low.executed == list(range(low.total_stages))
        # the high-priority request finished first despite arriving later
        assert finished[0].request.index == 1

    def test_preempt_off_pins_inflight_group(self, profiles):
        sched = make_scheduler(profiles, max_batch=1, preempt=False)
        low = sched.add(request(0, priority=0))
        group, stage, _, _ = sched.select([])
        sched.stage_done(group, stage, 1.0)
        sched.add(request(1, priority=1))
        group, _, preempted, _ = sched.select(group)
        assert group == [low]
        assert not preempted
        assert sched.preemptions == 0

    def test_equal_priority_never_preempts(self, profiles):
        sched = make_scheduler(profiles, max_batch=1)
        for i in range(4):
            sched.add(request(i))
        drain(sched)
        assert sched.preemptions == 0


class TestPreemptOrder:
    """``preempted`` follows the carried group's order, so the
    ``serve.preempt`` spans are structurally deterministic."""

    def test_displaced_carry_comes_back_in_prev_order(self, profiles):
        sched = make_scheduler(profiles, max_batch=4)
        low = [sched.add(request(i)) for i in range(3)]
        group, stage, _, _ = sched.select([])
        assert group == low
        sched.stage_done(group, stage, 1.0)
        sched.add(request(3, priority=1))
        prev = [low[2], low[0], low[1]]
        group, _, preempted, _ = sched.select(prev)
        assert [e.request.index for e in group] == [3]
        assert preempted == prev

    # Allocation padding moves every later object to other addresses, so
    # an order that followed ``id`` would differ between the two runs.
    SCRIPT = """
import json, sys
pad = [bytearray(48 + 16 * (i % 13)) for i in range(int(sys.argv[1]))]
from repro import obs, serve
weights = serve.parse_model_mix("model2:0.3+model4:0.7")
profiles = {
    m: serve.request_profile(m, passes="packing+stratify+ecp") for m in weights
}
mean = sum(w * profiles[m].single_latency_s for m, w in weights.items())
tenants = serve.parse_tenants("gold:3+silver:1")
requests = serve.poisson_arrivals(300, 1.5 / mean, weights, 0)
requests = serve.assign_priorities(requests, "0:0.8+1:0.2", seed=0)
requests = serve.assign_tenants(requests, tenants, seed=0)
config = serve.SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous")
sizes = []
select = serve.ContinuousBatchScheduler.select
def counted(self, prev):
    result = select(self, prev)
    sizes.append(len(result[2]))
    return result
serve.ContinuousBatchScheduler.select = counted
obs.enable(metrics=False)
serve.simulate_serving(requests, config, profiles=profiles, tenants=tenants)
spans = [s.args["request"] for s in obs.tracer.spans if s.name == "serve.preempt"]
print(json.dumps({"preempts": spans, "largest": max(sizes)}))
"""

    def test_preempt_spans_match_across_processes(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop(obs.TRACE_ENV, None)
        runs = []
        for padding in (0, 20_000):
            out = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(padding)],
                capture_output=True, text=True, env=env, cwd=tmp_path,
                check=True,
            )
            runs.append(json.loads(out.stdout.splitlines()[-1]))
        assert runs[0]["largest"] >= 2, "no boundary preempted two entries"
        assert runs[0]["preempts"]
        assert runs[0]["preempts"] == runs[1]["preempts"]


class TestJoinLeave:
    def test_preempted_entry_joins_peer_group_at_same_stage(self, profiles):
        sched = make_scheduler(profiles, max_batch=2)
        a = sched.add(request(0))
        b = sched.add(request(1))
        group, stage, _, _ = sched.select([])
        assert set(group) == {a, b}
        sched.stage_done(group, stage, 1.0)
        # a high-priority singleton displaces the pair at the boundary
        sched.add(request(2, priority=1))
        group, stage, preempted, _ = sched.select(group)
        assert group[0].request.index == 2
        assert set(preempted) == {a, b}
        # when the pair re-enters, the two stage-1 checkpoints re-merge;
        # their cohorts diverged, so the merge counts as a join
        joins_before = sched.joins
        finished = drain(sched, group)
        assert len(finished) == 3
        assert sched.joins > joins_before

    def test_join_disabled_keeps_cohorts_separate(self, profiles):
        sched = make_scheduler(profiles, max_batch=4, allow_join=False)
        sched.add(request(0))
        group, stage, _, _ = sched.select([])
        sched.stage_done(group, stage, 1.0)
        late = sched.add(request(1))
        group, stage, _, joined = sched.select(group)
        assert late not in group
        assert joined == 0
        sched.stage_done(group, stage, 2.0)
        drain(sched, group)
        assert sched.joins == 0


class Twin:
    """The indexed scheduler and the list-scan oracle, driven in step on
    ``lanes`` lanes; every decision must be ``==`` across the two."""

    def __init__(self, profiles, lanes=1, tenants=(), **config):
        config.setdefault("mode", "continuous")
        self.scheds = [
            cls(SchedulerConfig(**config), profiles, tenants)
            for cls in (ContinuousBatchScheduler, ReferenceScheduler)
        ]
        self.lanes = [[([], None) for _ in range(lanes)] for _ in self.scheds]
        self.now = 0.0

    @property
    def continued(self) -> int:
        return self.scheds[0].continued

    def add(self, i, **fields):
        for sched in self.scheds:
            sched.add(request(i, **fields))

    def select(self, lane=0):
        decisions = []
        for sched, lanes in zip(self.scheds, self.lanes):
            group, stage, preempted, joined = sched.select(lanes[lane][0])
            lanes[lane] = (group, stage)
            decisions.append((
                [e.request.index for e in group], stage,
                [e.request.index for e in preempted], joined,
            ))
        assert decisions[0] == decisions[1]
        return decisions[0]

    def done(self, lane=0):
        self.now += 1.0
        for sched, lanes in zip(self.scheds, self.lanes):
            group, stage = lanes[lane]
            sched.stage_done(group, stage, self.now)
            lanes[lane] = ([e for e in group if not e.done], None)

    def step(self, lane=0):
        self.done(lane)
        return self.select(lane)


class TestContinuation:
    """A carried group that wins its head and has no pooled peer to take
    in continues through :meth:`select`'s continuation test; each way a
    carried group must *not* simply continue goes the general way.  The
    list-scan oracle decides every boundary beside it."""

    def preempted_at_stage_1(self, profiles, carried, max_batch):
        # Entry 0 runs stage 0 on lane 1 and is preempted back to the
        # pool at checkpoint 1 (order 0); the ``carried`` entries run
        # stage 0 together on lane 0.
        twin = Twin(profiles, lanes=2, max_batch=max_batch)
        twin.add(0)
        assert twin.select(lane=1)[0] == [0]
        for i in carried:
            twin.add(i)
        assert twin.select(lane=0)[0] == list(carried)
        twin.done(lane=1)
        twin.add(9, priority=1)
        assert twin.select(lane=1) == ([9], 0, [0], 0)
        twin.done(lane=0)
        return twin

    def test_lower_order_peer_displaces_a_full_group(self, profiles):
        twin = self.preempted_at_stage_1(profiles, (1, 2), max_batch=2)
        assert twin.select(lane=0) == ([1, 0], 1, [], 1)
        assert twin.continued == 0

    def test_lower_order_peer_joins_a_group_with_room(self, profiles):
        twin = self.preempted_at_stage_1(profiles, (1, 2), max_batch=3)
        assert twin.select(lane=0) == ([1, 0, 2], 1, [], 1)
        assert twin.continued == 0

    def test_lone_carry_continues_past_any_peer(self, profiles):
        # max_batch 1: a group has no room for peers at all
        twin = self.preempted_at_stage_1(profiles, (1,), max_batch=1)
        assert twin.select(lane=0) == ([1], 1, [], 0)
        assert twin.continued == 1

    def test_carry_handed_back_out_of_order_regroups_in_order(self, profiles):
        twin = Twin(profiles, max_batch=4)
        for i in range(3):
            twin.add(i)
        assert twin.select() == ([0, 1, 2], 0, [], 0)
        twin.done()
        for lanes in twin.lanes:
            (a, b, c), stage = lanes[0]
            lanes[0] = ([a, c, b], stage)
        assert twin.select() == ([0, 1, 2], 1, [], 0)
        assert twin.continued == 0

    def test_higher_order_peer_leaves_a_full_group_alone(self, profiles):
        twin = Twin(profiles, lanes=2, max_batch=2)
        for i in range(4):
            twin.add(i)
        assert twin.select(lane=0)[0] == [0, 1]
        assert twin.select(lane=1)[0] == [2, 3]
        twin.done(lane=1)
        twin.add(9, priority=1)
        assert twin.select(lane=1) == ([9], 0, [2, 3], 0)
        assert twin.step(lane=0) == ([0, 1], 1, [], 0)
        assert twin.continued == 1

    def test_pooled_tenant_wins_wfq_from_the_carry(self, profiles):
        tenants = (TenantSpec("gold", 2.0), TenantSpec("silver", 1.0))
        twin = Twin(profiles, tenants=tenants, max_batch=1)
        twin.add(0, tenant="silver")
        assert twin.select()[0] == [0]
        twin.add(1, tenant="gold")
        # silver has service, gold none: gold takes the boundary
        assert twin.step() == ([1], 0, [], 0)
        while (decision := twin.step())[0] == [1]:
            pass
        # gold continued until its virtual service passed silver's
        assert twin.continued > 0
        assert decision == ([0], 1, [], 0)
        gold = twin.scheds[0].service_s["gold"] / 2.0
        assert gold > twin.scheds[0].service_s["silver"]

    @pytest.mark.parametrize("preempt", [True, False])
    def test_higher_tier_arrival(self, profiles, preempt):
        twin = Twin(profiles, max_batch=2, preempt=preempt)
        twin.add(0)
        twin.add(1)
        assert twin.select() == ([0, 1], 0, [], 0)
        assert twin.step() == ([0, 1], 1, [], 0)
        twin.add(2, priority=1)
        if preempt:
            assert twin.step() == ([2], 0, [0, 1], 0)
            assert twin.continued == 1
        else:
            assert twin.step() == ([0, 1], 2, [], 0)
            assert twin.continued == 2


class TestWFQ:
    TENANTS = (TenantSpec("gold", 3.0), TenantSpec("silver", 1.0))

    def test_service_ratio_tracks_weights_under_backlog(self, profiles):
        sched = make_scheduler(profiles, max_batch=1, tenants=self.TENANTS)
        for i in range(120):
            sched.add(request(i, tenant="gold" if i % 2 == 0 else "silver"))
        group = []
        now = 0.0
        # run while both tenants still have un-dispatched work, then
        # compare cumulative virtual service
        while any(e.request.tenant == "gold" for e in sched.pool) and any(
            e.request.tenant == "silver" for e in sched.pool
        ):
            group, stage, _, _ = sched.select(group)
            now += 1.0
            sched.stage_done(group, stage, now)
            group = [e for e in group if not e.done]
        ratio = sched.service_s["gold"] / sched.service_s["silver"]
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_single_tenant_degenerates_to_fifo(self, profiles):
        sched = make_scheduler(
            profiles, max_batch=1, tenants=(TenantSpec("solo", 2.0),)
        )
        for i in range(3):
            sched.add(request(i, tenant="solo"))
        finished = drain(sched)
        assert [e.request.index for e in finished] == [0, 1, 2]

    def test_undeclared_tenant_defaults_to_weight_one(self, profiles):
        sched = make_scheduler(profiles, max_batch=1, tenants=self.TENANTS)
        sched.add(request(0, tenant="walkin"))
        drain(sched)
        assert sched.service_s["walkin"] > 0


class Calls(list):
    """Decision calls in order, plus the selects the continuation test
    decided."""

    continued = 0


class TestSelectsCounter:
    """``serve.scheduler.selects`` counts every group decision: each
    continuous ``select`` and each static ``take_batch``;
    ``serve.scheduler.continued`` the selects that kept their group."""

    @pytest.fixture
    def metrics(self):
        obs.disable()
        obs.registry.reset()
        obs.enable(trace=False, metrics=True)
        yield obs.registry
        obs.disable()
        obs.registry.reset()

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = Calls()
        select = ContinuousBatchScheduler.select
        take = serve_simulate.take_batch

        def counted_select(self, prev):
            counted.append("select")
            before = self.continued
            result = select(self, prev)
            counted.continued += self.continued - before
            return result

        def counted_take(pool, max_batch):
            counted.append("take_batch")
            return take(pool, max_batch)

        monkeypatch.setattr(ContinuousBatchScheduler, "select", counted_select)
        monkeypatch.setattr(serve_simulate, "take_batch", counted_take)
        return counted

    @pytest.mark.parametrize("mode", ["static", "continuous"])
    def test_counter_equals_decision_calls(self, metrics, calls, profiles, mode):
        requests = [
            Request(
                index=r.index, model=r.model, arrival_s=r.arrival_s,
                priority=r.index % 3 == 0,
            )
            for r in poisson_arrivals(30, 6000.0, MODEL, seed=5)
        ]
        config = SchedulerConfig(max_batch=2, max_inflight=2, mode=mode)
        simulate_serving(requests, config, profiles=profiles)
        expected = "select" if mode == "continuous" else "take_batch"
        assert calls and set(calls) == {expected}
        assert metrics.counter("serve.scheduler.selects").value == len(calls)
        continued = metrics.counter("serve.scheduler.continued").value
        assert continued == calls.continued
        assert (continued > 0) == (mode == "continuous")

    def test_cluster_runs_add_their_chips_decisions(self, metrics, calls):
        from repro.cluster import (
            ShardingConfig,
            homogeneous_fleet,
            simulate_cluster_sharded,
        )

        requests = poisson_arrivals(40, 20000.0, MODEL, seed=2)
        config = SchedulerConfig(max_batch=2, mode="continuous")
        simulate_cluster_sharded(requests, homogeneous_fleet(2), config)
        single = len(calls)
        simulate_cluster_sharded(
            requests, homogeneous_fleet(4), config,
            sharding=ShardingConfig(num_shards=2, window_s=0.0005, jobs=1),
        )
        assert 0 < single < len(calls)
        assert metrics.counter("serve.scheduler.selects").value == len(calls)
        continued = metrics.counter("serve.scheduler.continued").value
        assert 0 < continued == calls.continued


class TestStageSerial:
    def test_matches_single_latency_sum(self, profiles):
        profile = profiles[MODEL]
        total = sum(stage_serial_s(t) for t in profile.timings)
        assert total == pytest.approx(profile.single_latency_s, rel=1e-12)


class TestSimulation:
    def test_report_surface(self, profiles):
        requests = poisson_arrivals(40, 3000.0, MODEL, seed=2)
        report = simulate_serving(
            requests,
            SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous"),
            profiles=profiles,
        )
        assert report.mode == "continuous"
        assert report.num_requests == 40
        payload = report.to_dict()
        assert payload["scheduler"]["mode"] == "continuous"
        assert payload["scheduler"]["policy"] == "continuous"
        assert "preemptions" in payload["scheduler"]

    def test_requests_carry_tenant_and_priority_in_both_modes(self, profiles):
        requests = [
            Request(
                index=i, model=MODEL, arrival_s=0.0,
                tenant="acme", priority=1,
            )
            for i in range(3)
        ]
        for mode in ("static", "continuous"):
            report = simulate_serving(
                requests,
                SchedulerConfig(max_batch=2, mode=mode),
                profiles=profiles,
            )
            assert all(r.tenant == "acme" for r in report.requests)
            assert all(r.priority == 1 for r in report.requests)

    def test_deterministic(self, profiles):
        requests = poisson_arrivals(50, 4000.0, MODEL, seed=7)
        config = SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous")
        a = simulate_serving(requests, config, profiles=profiles)
        b = simulate_serving(requests, config, profiles=profiles)
        assert a.to_dict() == b.to_dict()

    def test_preemption_counters_reach_report(self, profiles):
        base = poisson_arrivals(60, 6000.0, MODEL, seed=3)
        requests = [
            Request(
                index=r.index, model=r.model, arrival_s=r.arrival_s,
                priority=1 if r.index % 5 == 0 else 0,
            )
            for r in base
        ]
        report = simulate_serving(
            requests,
            SchedulerConfig(max_inflight=2, mode="continuous"),
            profiles=profiles,
        )
        assert report.preemptions > 0
        assert report.to_dict()["scheduler"]["preemptions"] == report.preemptions
        preempted = [r for r in report.requests if r.preemptions > 0]
        assert preempted, "at least one served request recorded a preemption"
