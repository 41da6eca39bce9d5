"""Differential oracle: the indexed ready pool decides as the list scan.

:class:`~tests.serve.reference_scheduler.ReferenceScheduler` is the
list-scan scheduler the indexed :class:`~repro.serve.ReadyPool` replaced.
Both are driven with the same operations, and every group decision
``(group, stage, preempted, joined)`` — entries named by request index —
must be ``==``:

* a Hypothesis property over random add / select / stage_done
  interleavings on 1–3 lanes, 1–3 priority tiers, tenants of weight 1–3,
  ``max_batch`` 1–4, joins and preemption on and off, in static and
  continuous mode (``HYPOTHESIS_PROFILE=thorough`` widens the search);
* whole ``simulate_serving`` runs of 200-request rho-1.5 streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.serve import (
    ContinuousBatchScheduler,
    Request,
    SchedulerConfig,
    TenantSpec,
    assign_priorities,
    assign_tenants,
    parse_model_mix,
    parse_tenants,
    poisson_arrivals,
    request_profile,
    simulate_serving,
    take_batch,
)
from repro.serve import simulate as serve_simulate

from .reference_scheduler import ReferenceScheduler, reference_take_batch

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


@dataclass(frozen=True)
class StubTiming:
    """Just enough of a ``LayerTiming`` for WFQ stage-serial accounting."""

    compute_s: float

    def dram_s(self, batch: int) -> float:
        return 0.0


@dataclass(frozen=True)
class StubProfile:
    timings: tuple[StubTiming, ...]

    @property
    def single_latency_s(self) -> float:
        return sum(t.compute_s for t in self.timings)


STUB_PROFILES = {
    "a": StubProfile(tuple(StubTiming(1.0 + 0.5 * i) for i in range(4))),
    "b": StubProfile(tuple(StubTiming(2.0 - 0.25 * i) for i in range(6))),
}
MODELS = sorted(STUB_PROFILES)


def decision(result) -> tuple:
    group, stage, preempted, joined = result
    return (
        tuple(e.request.index for e in group),
        stage,
        tuple(e.request.index for e in preempted),
        joined,
    )


class Harness:
    """One scheduler plus its lanes, stepped by explicit operations."""

    def __init__(self, cls, take, config, tenants, lanes):
        self.sched = cls(config, STUB_PROFILES, tenants)
        self.take = take
        self.lanes = [{"group": [], "stage": None} for _ in range(lanes)]
        self.log: list[tuple] = []
        self.now = 0.0

    def add(self, request: Request) -> None:
        self.sched.add(request)

    def select(self, lane: dict) -> None:
        if lane["stage"] is not None:
            return
        sched = self.sched
        if sched.config.continuous:
            group, stage, preempted, joined = sched.select(lane["group"])
            self.log.append(decision((group, stage, preempted, joined)))
        elif sched.pool:
            group, stage = self.take(sched.pool, sched.config.max_batch), 0
            self.log.append(decision((group, 0, [], 0)))
        else:
            return
        lane["group"] = group
        lane["stage"] = stage if group else None

    def done(self, lane: dict) -> None:
        if lane["stage"] is None:
            return
        self.now += 1.0
        group, sched = lane["group"], self.sched
        if sched.config.continuous:
            sched.stage_done(group, lane["stage"], self.now)
            lane["group"] = [e for e in group if not e.done]
        else:
            sched.program_done(group, self.now)
            lane["group"] = []
        lane["stage"] = None

    def step(self, lane: dict) -> None:
        self.done(lane)
        self.select(lane)

    def busy(self) -> bool:
        return not self.sched.empty or any(
            lane["group"] or lane["stage"] is not None for lane in self.lanes
        )

    def state(self) -> tuple:
        sched = self.sched
        return (
            sched.queue_depth, sched.empty, sched.preemptions, sched.joins,
            sorted(e.request.index for e in sched.pool),
        )


@st.composite
def scenarios(draw, mode):
    config = SchedulerConfig(
        max_batch=draw(st.integers(1, 4)),
        mode=mode,
        allow_join=draw(st.booleans()),
        preempt=draw(st.booleans()),
    )
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    tenants = tuple(TenantSpec(f"t{i}", w) for i, w in enumerate(weights))
    names = [t.name for t in tenants] + [""]  # "" is undeclared: weight 1
    tiers = draw(st.integers(1, 3))
    lanes = draw(st.integers(1, 3))
    arrival = st.tuples(
        st.sampled_from(MODELS),
        st.integers(0, tiers - 1),
        st.sampled_from(names),
    )
    # Each operation admits 0-2 requests, then acts on one lane: "step"
    # ends its stage and decides at once, as a chip's lanes do.
    ops = draw(st.lists(
        st.tuples(
            st.lists(arrival, max_size=2),
            st.sampled_from(["step", "step", "select", "done"]),
            st.integers(0, lanes - 1),
        ),
        min_size=20,
        max_size=60,
    ))
    return config, tenants, lanes, ops


def play(config, tenants, lanes, ops, cls, take):
    harness = Harness(cls, take, config, tenants, lanes)
    states = []
    index = 0
    for arrivals, action, lane in ops:
        for model, priority, tenant in arrivals:
            harness.add(Request(
                index=index, model=model, arrival_s=0.0,
                tenant=tenant, priority=priority,
            ))
            index += 1
        getattr(harness, action)(harness.lanes[lane])
        states.append(harness.state())
    # drain: every lane finishes its stage and re-selects until all is done
    while harness.busy():
        for lane in harness.lanes:
            harness.step(lane)
        states.append(harness.state())
    return harness, states


@pytest.mark.parametrize("mode", ["static", "continuous"])
@given(data=st.data())
def test_indexed_pool_decides_as_the_list_scan(mode, data):
    config, tenants, lanes, ops = data.draw(scenarios(mode))
    indexed, indexed_states = play(
        config, tenants, lanes, ops, ContinuousBatchScheduler, take_batch
    )
    reference, reference_states = play(
        config, tenants, lanes, ops, ReferenceScheduler, reference_take_batch
    )
    assert indexed.log == reference.log
    assert indexed_states == reference_states
    assert indexed.sched.service_s == reference.sched.service_s


# -- whole serving runs --------------------------------------------------
MIX = "model2:0.3+model4:0.7"
PASSES = "packing+stratify+ecp"
TENANTS = parse_tenants("gold:3+silver:1")


@pytest.fixture(scope="module")
def profiles():
    return {
        model: request_profile(model, passes=PASSES)
        for model in parse_model_mix(MIX)
    }


def saturated_stream(profiles, seed, n=200, rho=1.5, mix="0:0.8+1:0.2"):
    weights = parse_model_mix(MIX)
    mean = sum(w * profiles[m].single_latency_s for m, w in weights.items())
    requests = poisson_arrivals(n, rho / mean, weights, seed)
    requests = assign_priorities(requests, mix, seed=seed)
    return assign_tenants(requests, TENANTS, seed=seed)


def served_decisions(monkeypatch, profiles, requests, config, cls, take):
    log: list[tuple] = []

    class Recorded(cls):
        def select(self, prev):
            result = super().select(prev)
            log.append(decision(result))
            return result

    def recorded_take(pool, max_batch):
        group = take(pool, max_batch)
        log.append(decision((group, 0, [], 0)))
        return group

    with monkeypatch.context() as patch:
        patch.setattr(serve_simulate, "ContinuousBatchScheduler", Recorded)
        patch.setattr(serve_simulate, "take_batch", recorded_take)
        report = simulate_serving(
            requests, config, profiles=profiles, tenants=TENANTS
        )
    return log, report.to_dict()


CONFIGS = {
    "saturated": SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous"),
    "pinned": SchedulerConfig(
        max_batch=4, max_inflight=2, mode="continuous", allow_join=False
    ),
    "no_preempt": SchedulerConfig(
        max_batch=2, max_inflight=3, mode="continuous", preempt=False
    ),
    "static": SchedulerConfig(max_batch=4, max_inflight=2),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_serving_runs_decide_as_the_list_scan(monkeypatch, profiles, name, seed):
    mix = "0:0.6+1:0.25+2:0.15" if seed else "0:0.8+1:0.2"
    requests = saturated_stream(profiles, seed, mix=mix)
    config = CONFIGS[name]
    indexed = served_decisions(
        monkeypatch, profiles, requests, config,
        ContinuousBatchScheduler, take_batch,
    )
    reference = served_decisions(
        monkeypatch, profiles, requests, config,
        ReferenceScheduler, reference_take_batch,
    )
    assert indexed == reference  # every decision, then the whole report
    if config.continuous and config.preempt:
        assert indexed[1]["scheduler"]["preemptions"] > 0
