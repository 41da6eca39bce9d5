"""Callback lanes pinned to the generator reference lanes.

Serving runs each program or stage through a callback replay
(``repro.arch.engine.lanes``): one timed event per positive-duration
occupancy, no event for an acquire, release, grant, join or spawn.  The
oracle swaps the generator lanes of ``tests/arch/engine/reference_lanes.py``
(one quantum per core task) in for the replays, and the process kernel
of ``tests/arch/engine/reference_kernel.py`` in for the engine they run
on.  On whole streams of
real compiled profiles every request's ``(start_s, finish_s,
batch_size, preemptions)``, every ``ResourceStats``, the report payload
and the (sorted) timeline must be ``==`` between the two.

Grid-quantized Hypothesis streams hit exact ties.  A lane alone on its
chip (``max_inflight 1``) must still replay ``==``; with more lanes two
of them may want a free resource at the same instant, and the two paths
may break that tie differently (docs/ARCHITECTURE.md, "Event model"),
so there only invariants are required.
"""

import dataclasses

import pytest

from repro.arch.engine import LayerTiming
from repro.cluster import ShardingConfig, homogeneous_fleet, simulate_cluster_sharded
from repro.cluster import sharding
from repro.serve import simulate as serve_simulate
from repro.serve import (
    RequestProfile,
    SchedulerConfig,
    Request,
    assign_priorities,
    assign_tenants,
    parse_tenants,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

from ..arch.engine.reference_kernel import ProcessEngine
from ..arch.engine.reference_lanes import ScheduledLanes, SerialLanes

MODELS = ("model1", "model2", "model4")
MIX = "model1:0.3+model2:0.3+model4:0.4"
TENANTS = "gold:3+silver:1"


@pytest.fixture(scope="module", params=["all", "packing+stratify+ecp"])
def profiles(request):
    # Compiled once and passed explicitly to both sides.
    return {m: request_profile(m, passes=request.param) for m in MODELS}


def generator_lanes(monkeypatch, run):
    """Run ``run()`` with the generator lanes in place of the replays,
    on the process kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(serve_simulate, "Engine", ProcessEngine)
        patch.setattr(sharding, "Engine", ProcessEngine)
        patch.setattr(serve_simulate, "SerialReplay", SerialLanes)
        patch.setattr(serve_simulate, "ScheduledReplay", ScheduledLanes)
        return run()


def payload(report) -> dict:
    return {
        "requests": [
            (r.index, r.start_s, r.finish_s, r.batch_size, r.preemptions)
            for r in report.requests
        ],
        "stats": {
            name: dataclasses.astuple(stats)
            for name, stats in report.run.resource_stats.items()
        },
        "report": report.to_dict(),
        "timeline": sorted(
            report.run.timeline,
            key=lambda e: (e.start_s, e.end_s, e.resource, e.label),
        ),
    }


def assert_lanes_agree(monkeypatch, stream, scheduler, profiles, tenants=()):
    def run():
        return simulate_serving(
            stream, scheduler, profiles=profiles, tenants=tenants,
            record_timeline=True,
        )

    callback = run()
    assert callback.num_requests == len(stream)
    assert payload(callback) == payload(generator_lanes(monkeypatch, run))


def stream_at(profiles, rho, seed, n=40):
    mean = sum(p.single_latency_s for p in profiles.values()) / len(profiles)
    return poisson_arrivals(n, rho / mean, MIX, seed=seed)


class TestWholeStreamOracle:
    @pytest.mark.parametrize("rho", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("max_batch", [1, 4])
    @pytest.mark.parametrize("max_inflight", [1, 2, 3])
    def test_static(self, monkeypatch, profiles, rho, max_batch, max_inflight):
        assert_lanes_agree(
            monkeypatch, stream_at(profiles, rho, seed=max_inflight),
            SchedulerConfig(max_batch, max_inflight), profiles,
        )

    @pytest.mark.parametrize("rho", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize(
        "config",
        [
            dict(max_batch=4, max_inflight=2),
            dict(max_batch=2, max_inflight=3),
            dict(max_batch=1, max_inflight=1),
            dict(max_batch=4, max_inflight=2, allow_join=False),
            dict(max_batch=4, max_inflight=2, preempt=False),
        ],
    )
    def test_continuous_with_joins_preemption_and_tenants(
        self, monkeypatch, profiles, rho, config
    ):
        stream = assign_priorities(
            stream_at(profiles, rho, seed=7), "0:0.7+1:0.3", seed=7
        )
        stream = assign_tenants(stream, TENANTS, seed=7)
        assert_lanes_agree(
            monkeypatch, stream,
            SchedulerConfig(mode="continuous", **config),
            profiles, parse_tenants(TENANTS),
        )

    @pytest.mark.parametrize("mode", ["static", "continuous"])
    def test_multi_chip_shard(self, monkeypatch, mode):
        stream = poisson_arrivals(120, 40000.0, "model2:0.4+model4:0.6", seed=5)

        def run():
            return simulate_cluster_sharded(
                stream, homogeneous_fleet(4),
                SchedulerConfig(max_batch=2, max_inflight=2, mode=mode),
                sharding=ShardingConfig(num_shards=1),
            ).to_dict()

        callback = run()
        assert callback["served"] == 120
        assert callback == generator_lanes(monkeypatch, run)


def layer(compute=0.0, activation=0.0, weight=0.0, phase="MLP"):
    return LayerTiming(
        block=0, kind=phase, phase=phase,
        dense_s=compute if phase != "ATN" else 0.0,
        attention_s=compute if phase == "ATN" else 0.0,
        spike_gen_s=0.125, weight_dram_s=weight, activation_dram_s=activation,
    )


class TestPrefetchTieRules:
    """Hand-built prefetch programs, one per DRAM tie rule of the
    scheduled replay, each pinned to the generator lanes (including the
    DRAM ``wait_s`` and the timeline, which show the FIFO order)."""

    CASES = {
        # a0 [0, .25] enqueues before w0 [.25, .5]
        "activation_0_before_weight_0": (
            layer(1.0, 0.25, 0.25), layer(0.25, 0.25, 0.25),
        ),
        # layer 1's start releases w2: a1 [2, 2.5] before w2 [2.5, 3]
        "started_activation_before_released_weight": (
            layer(2.0, 0.25, 0.25), layer(0.25, 0.5, 0.5),
            layer(0.25, 0.5, 0.5, phase="ATN"),
        ),
        # layer 0 waits on w0 until 1.25; w1 [1.25, 1.75] before a1
        "weight_successor_before_waiting_layer": (
            layer(0.25, 0.25, 1.0), layer(0.25, 0.25, 0.5),
            layer(0.25, 0.5, 0.5),
        ),
        # zero-weight layers let the prefetcher run ahead synchronously
        "zero_weights_in_between": (
            layer(0.5, 0.25, 0.25), layer(0.25, 0.25, 0.0),
            layer(0.25, 0.0, 0.0, phase="ATN"), layer(0.25, 0.25, 0.5),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("batch", [1, 2])
    def test_matches_the_generator_lanes(self, monkeypatch, case, batch):
        timings = self.CASES[case]
        profile = RequestProfile(
            model="p", timings=timings, single_latency_s=1.0,
            scheduled=True,
        )
        stream = [Request(index=i, model="p", arrival_s=0.0) for i in range(batch)]
        assert_lanes_agree(
            monkeypatch, stream, SchedulerConfig(max_batch=batch),
            {"p": profile},
        )


class TestEventBudget:
    def test_one_timed_event_per_occupancy(self, monkeypatch, profiles):
        """A lone request costs one timed event per positive occupancy
        and a fixed six ready events, whatever its layer count."""
        from repro.arch.engine import Engine
        from repro.arch.engine.lanes import _Replay

        stream = [Request(index=0, model="model4", arrival_s=0.0)]
        profile = profiles["model4"]
        holds = 0
        for t in profile.timings:
            cores = [t.attention_s] if t.phase == "ATN" else [t.dense_s, t.sparse_s]
            holds += sum(d > 0 for d in (*cores, t.spike_gen_s))
            if profile.scheduled:
                holds += (t.weight_dram_s > 0) + (t.activation_dram_s > 0)
            else:
                holds += t.dram_s(1) > 0
        calls = []
        original = Engine.schedule

        def counted(self, delay, fn):
            calls.append(delay)
            return original(self, delay, fn)

        monkeypatch.setattr(Engine, "schedule", counted)
        # Alone on an idle chip the program would be elided to one wake
        # (tests/serve/test_private_chip_elision.py); this pins the
        # callback replay itself.
        monkeypatch.setattr(_Replay, "_elide", lambda self: False)
        simulate_serving(stream, SchedulerConfig(), profiles=profiles)
        assert sum(delay > 0 for delay in calls) == holds
        # Ready hops: the dispatcher's and the arrival feed's first runs,
        # the arrival's and the lane exit's dispatcher wake-ups, the lane
        # start, one wake.
        assert len(calls) == holds + 6


class TestZeroStagePrograms:
    EMPTY = RequestProfile(model="empty", timings=(), single_latency_s=0.0)

    @pytest.mark.parametrize("mode", ["static", "continuous"])
    def test_complete_at_dispatch(self, mode):
        stream = [
            Request(index=i, model="empty", arrival_s=0.5 * (i // 2))
            for i in range(5)
        ]
        report = simulate_serving(
            stream, SchedulerConfig(max_batch=2, max_inflight=2, mode=mode),
            profiles={"empty": self.EMPTY},
        )
        assert report.num_requests == 5
        for served, request in zip(report.requests, stream):
            assert served.start_s == served.finish_s == request.arrival_s

    def test_beside_a_real_model(self, profiles):
        model = "model4"
        stream = [
            Request(index=0, model=model, arrival_s=0.0),
            Request(index=1, model="empty", arrival_s=0.0),
            Request(index=2, model="empty", arrival_s=1e-6),
        ]
        report = simulate_serving(
            stream, SchedulerConfig(max_inflight=1, mode="continuous"),
            profiles={model: profiles[model], "empty": self.EMPTY},
        )
        assert [r.index for r in report.requests] == [0, 1, 2]
        for served in report.requests[1:]:
            assert served.finish_s == served.start_s


# -- grid-quantized property streams ---------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

GRID = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])


@st.composite
def layer_timings(draw):
    phase = draw(st.sampled_from(["ATN", "MLP", "P1"]))
    return LayerTiming(
        block=0, kind=f"k{phase}", phase=phase,
        dense_s=draw(GRID), sparse_s=draw(GRID), attention_s=draw(GRID),
        spike_gen_s=draw(GRID), weight_dram_s=draw(GRID),
        activation_dram_s=draw(GRID),
    )


@st.composite
def grid_profiles(draw):
    profiles = {}
    for name in draw(st.sampled_from([("a",), ("a", "b")])):
        timings = tuple(draw(st.lists(layer_timings(), min_size=0, max_size=4)))
        profiles[name] = RequestProfile(
            model=name, timings=timings,
            single_latency_s=sum(max(t.compute_s, t.dram_s(1)) for t in timings),
            scheduled=draw(st.booleans()),
        )
    return profiles


@st.composite
def grid_cases(draw, max_inflight):
    profiles = draw(grid_profiles())
    n = draw(st.integers(1, 8))
    slots = sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    stream = [
        Request(
            index=i, model=draw(st.sampled_from(sorted(profiles))),
            arrival_s=0.25 * slot, priority=draw(st.integers(0, 1)),
        )
        for i, slot in enumerate(slots)
    ]
    scheduler = SchedulerConfig(
        max_batch=draw(st.integers(1, 3)),
        max_inflight=draw(max_inflight),
        mode=draw(st.sampled_from(["static", "continuous"])),
    )
    return profiles, stream, scheduler


@given(case=grid_cases(st.just(1)))
def test_grid_streams_match_the_generator_lanes_alone_on_a_chip(case):
    profiles, stream, scheduler = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_lanes_agree(monkeypatch, stream, scheduler, profiles)


@given(case=grid_cases(st.integers(2, 3)))
def test_grid_streams_keep_the_invariants_with_contending_lanes(case):
    profiles, stream, scheduler = case
    report = simulate_serving(
        stream, scheduler, profiles=profiles, record_timeline=True
    )
    assert sorted(r.index for r in report.requests) == list(range(len(stream)))
    for served, request in zip(report.requests, stream):
        assert request.arrival_s <= served.start_s <= served.finish_s
    held: dict[str, float] = {}
    for entry in report.run.timeline:
        held[entry.resource] = held.get(entry.resource, 0.0) + entry.duration_s
    for name, stats in report.run.resource_stats.items():
        assert stats.busy_s == held.get(name, 0.0)
