"""Private-chip elision pinned to the event replay.

A replay that starts on an idle chip with no timeline recorded walks its
program in closed form and costs one wake at its finish
(``repro.arch.engine.lanes``); a replay that starts beside it first
materializes it into the event replay.  Turning elision off — by
patching ``_Replay._elide`` — must leave every served request's
``(start_s, finish_s, chip, batch_size)``, every resource's ``busy_s``,
``wait_s`` and ``acquisitions`` and, on fleets, every ``WindowDigest``
field ``==``.
"""

import dataclasses

import pytest

from repro import obs
from repro.arch.engine import BishopMachine, Engine, LayerTiming
from repro.arch.engine import lanes
from repro.arch.engine.lanes import ScheduledReplay, SerialReplay
from repro.cluster import (
    AutoscaleConfig,
    ShardingConfig,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.cluster import sharding
from repro.serve import (
    Request,
    RequestProfile,
    SchedulerConfig,
    assign_priorities,
    assign_tenants,
    flash_crowd_arrivals,
    parse_tenants,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)
from repro.serve.simulate import ChipServer

from . import test_callback_lanes as callback_lanes

TIE_CASES = callback_lanes.TestPrefetchTieRules.CASES
MODELS = ("model1", "model2", "model4")
MIX = "model1:0.3+model2:0.3+model4:0.4"
TENANTS = "gold:3+silver:1"


def elision_off(monkeypatch) -> None:
    monkeypatch.setattr(lanes._Replay, "_elide", lambda self: False)


def watch_materializations(monkeypatch) -> list[dict]:
    """Record, per materialization, where the elided program stood."""
    seen: list[dict] = []
    original = lanes._Replay._materialize

    def materialize(self):
        now = self.engine.now
        original(self)
        machine = self.machine
        seen.append(dict(
            now=now,
            running=[u.name for u in machine.units if u.in_use],
            dram_queued=machine.dram.queued,
            index=self.index,
        ))

    monkeypatch.setattr(lanes._Replay, "_materialize", materialize)
    return seen


def count_elisions(monkeypatch) -> list[int]:
    counts = [0]
    original = lanes._Replay._elide

    def elide(self):
        elided = original(self)
        counts[0] += elided
        return elided

    monkeypatch.setattr(lanes._Replay, "_elide", elide)
    return counts


def payload(report) -> dict:
    return {
        "requests": sorted(
            (r.index, r.start_s, r.finish_s, r.chip, r.batch_size)
            for r in report.requests
        ),
        "stats": {
            name: (stats.busy_s, stats.wait_s, stats.acquisitions)
            for name, stats in report.run.resource_stats.items()
        },
        "report": report.to_dict(),
    }


def assert_elision_invisible(monkeypatch, run):
    elided = run()
    with monkeypatch.context() as patch:
        elision_off(patch)
        replayed = run()
    assert elided == replayed
    return elided


@pytest.fixture(scope="module", params=["all", "packing+stratify+ecp"])
def profiles(request):
    # "all" compiles the prefetch schedule, the other the serial replay.
    return {m: request_profile(m, passes=request.param) for m in MODELS}


def stream_at(profiles, rho, seed, n=50):
    mean = sum(p.single_latency_s for p in profiles.values()) / len(profiles)
    return poisson_arrivals(n, rho / mean, MIX, seed=seed)


class TestSingleChip:
    @pytest.mark.parametrize("rho", [0.5, 2.0])
    @pytest.mark.parametrize("max_batch", [1, 3])
    @pytest.mark.parametrize("max_inflight", [1, 2, 3])
    def test_static_streams(
        self, monkeypatch, profiles, rho, max_batch, max_inflight
    ):
        stream = stream_at(profiles, rho, seed=max_inflight)
        scheduler = SchedulerConfig(max_batch, max_inflight)
        seen = watch_materializations(monkeypatch)
        elided = count_elisions(monkeypatch)
        assert_elision_invisible(
            monkeypatch,
            lambda: payload(simulate_serving(stream, scheduler, profiles=profiles)),
        )
        assert elided[0] > 0
        if max_inflight > 1:
            assert seen, "a contended stream materializes elided programs"

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    @pytest.mark.parametrize(
        "config",
        [
            dict(max_batch=4, max_inflight=2),
            dict(max_batch=2, max_inflight=3),
            dict(max_batch=1, max_inflight=1),
            dict(max_batch=4, max_inflight=2, preempt=False),
        ],
    )
    def test_continuous_streams(self, monkeypatch, profiles, rho, config):
        stream = assign_priorities(
            stream_at(profiles, rho, seed=7), "0:0.7+1:0.3", seed=7
        )
        stream = assign_tenants(stream, TENANTS, seed=7)
        scheduler = SchedulerConfig(mode="continuous", **config)
        elided = count_elisions(monkeypatch)
        assert_elision_invisible(monkeypatch, lambda: payload(simulate_serving(
            stream, scheduler, profiles=profiles,
            tenants=parse_tenants(TENANTS),
        )))
        assert elided[0] > 0


def layer(compute=0.0, activation=0.0, weight=0.0, spike=0.25, sparse=0.0):
    return LayerTiming(
        block=0, kind="MLP", phase="MLP", dense_s=compute, sparse_s=sparse,
        spike_gen_s=spike, weight_dram_s=weight, activation_dram_s=activation,
    )


def grid_profile(timings, scheduled):
    return {"p": RequestProfile(
        model="p", timings=tuple(timings), single_latency_s=1.0,
        scheduled=scheduled,
    )}


def arrivals(*times):
    return [Request(index=i, model="p", arrival_s=t) for i, t in enumerate(times)]


class TestMaterialization:
    """Hand-built programs whose second request starts a lane exactly
    where the first, elided, program stands mid-layer, mid-DRAM-queue or
    at one of its holds' end instants."""

    # Serial: layer 0 holds dense [0, 2], DRAM [0, 1], spike [2, 2.25];
    # layer 1 starts at 2.25.
    SERIAL = (layer(2.0, 1.0), layer(1.0, 0.5, 0.5))
    # Prefetch: a0 [0, .5], w0 queued behind it until .5, w0 [.5, 1.5];
    # w1 queued behind w0.
    SCHEDULED = (layer(0.25, 0.5, 1.0), layer(0.5, 0.5, 1.0), layer(0.5, 0.25))

    def run(self, monkeypatch, timings, scheduled, times, max_inflight=2):
        stream = arrivals(*times)
        profiles = grid_profile(timings, scheduled)
        seen = watch_materializations(monkeypatch)
        assert_elision_invisible(monkeypatch, lambda: payload(simulate_serving(
            stream, SchedulerConfig(max_inflight=max_inflight),
            profiles=profiles,
        )))
        return seen

    def test_mid_layer(self, monkeypatch):
        seen = self.run(monkeypatch, self.SERIAL, False, (0.0, 0.5))
        assert seen[0]["now"] == 0.5
        assert seen[0]["running"] == ["dense_core", "dram"]
        assert seen[0]["index"] == 0

    def test_mid_dram_queue(self, monkeypatch):
        seen = self.run(monkeypatch, self.SCHEDULED, True, (0.0, 0.25))
        assert seen[0]["now"] == 0.25
        assert "dram" in seen[0]["running"]
        assert seen[0]["dram_queued"] == 1   # w0 behind a0

    @pytest.mark.parametrize("at", [1.0, 2.0, 2.25])
    def test_at_a_hold_end(self, monkeypatch, at):
        # DRAM ends at 1, dense at 2, the spike generator at 2.25: the
        # ended hold is credited and its successor already granted.
        seen = self.run(monkeypatch, self.SERIAL, False, (0.0, at))
        assert seen[0]["now"] == at
        assert seen[0]["index"] == (1 if at == 2.25 else 0)

    def test_same_instant_start(self, monkeypatch):
        # Two lanes start at 0: the first elides, the second materializes
        # it before it has advanced at all.
        seen = self.run(monkeypatch, self.SCHEDULED, True, (0.0, 0.0), 3)
        assert seen[0]["now"] == 0.0
        assert seen[0]["dram_queued"] == 1


class TestAlone:
    """Programs elided start to finish: the walk's own stats, including
    the DRAM waits of every prefetch tie rule."""

    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    @pytest.mark.parametrize("batch", [1, 2])
    def test_prefetch_tie_rules(self, monkeypatch, case, batch):
        profiles = grid_profile(TIE_CASES[case], True)
        # One batch at 0, one long after it has finished.
        stream = [
            Request(index=i, model="p", arrival_s=0.0 if i < batch else 50.0)
            for i in range(2 * batch)
        ]
        elided = count_elisions(monkeypatch)
        assert_elision_invisible(monkeypatch, lambda: payload(
            simulate_serving(stream, SchedulerConfig(max_batch=batch),
                             profiles=profiles)
        ))
        assert elided[0] == 2

    def test_an_activation_waits_behind_a_weight(self, monkeypatch):
        # a0 [0, .5], w0 [.5, 1.5], w1 [1.5, 2.5]; layer 1 starts at 1.5
        # and its activation waits for w1 until 2.5.
        timings = TestMaterialization.SCHEDULED
        elided = payload(simulate_serving(
            arrivals(0.0), SchedulerConfig(), profiles=grid_profile(timings, True),
        ))
        assert elided["stats"]["dram"][1] == 0.5 + 1.0


class TestExactTies:
    """The order implemented at exact ties (lanes.py, "Tie rule").

    An elided program's wake takes its sequence number when the program
    starts; the event replay's last hold takes one when it is granted.
    An arrival whose hold was scheduled in between therefore fires after
    the wake, not before the last hold.  Both only queue ready events:
    the lane resumes, and the arrival is enqueued, in the same instant
    either way, and every request is served alike.
    """

    TIMINGS = (layer(1.0, 0.5), layer(1.0, 0.5))   # finishes at 2.5

    def record_order(self, monkeypatch) -> list[str]:
        """Log each enqueue, elided wake and spike-generator hold end."""
        order: list[str] = []
        for cls, name, tag, indexed in (
            (ChipServer, "enqueue", "arrival", True),
            (lanes._Replay, "_elided_end", "wake", False),
            (lanes._Replay, "_spike_end", "spike_end", False),
        ):
            def logged(self, *args, _original=getattr(cls, name), _tag=tag,
                       _indexed=indexed):
                engine = self.engine
                label = f"{_tag}{args[0].index if _indexed else ''}@{engine.now}"
                order.append(label)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, logged)
        return order

    @pytest.mark.parametrize("max_inflight", [1, 2])
    def test_arrival_on_an_elided_finish(self, monkeypatch, max_inflight):
        # Request 1 arrives mid-program (queued behind a one-lane chip, or
        # on a second lane), request 2 exactly at request 0's finish.
        stream = arrivals(0.0, 1.25, 2.5)
        profiles = grid_profile(self.TIMINGS, False)

        def run():
            return payload(simulate_serving(
                stream, SchedulerConfig(max_inflight=max_inflight),
                profiles=profiles,
            ))

        with monkeypatch.context() as patch:
            elided_order = self.record_order(patch)
            elided = run()
        with monkeypatch.context() as patch:
            elision_off(patch)
            replayed_order = self.record_order(patch)
            assert run() == elided
        assert {r[0]: r[2] for r in elided["requests"]}[0] == 2.5
        if max_inflight == 1:
            # Request 2's hold was scheduled at 1.25: after the elided
            # wake's sequence number (0), before the last hold's (2.25).
            assert elided_order[2:4] == ["wake@2.5", "arrival2@2.5"]
            assert replayed_order[3:5] == ["arrival2@2.5", "spike_end@2.5"]

    def test_second_lane_on_an_elided_hold_end(self, monkeypatch):
        # Request 1's lane starts at 1.0, when request 0's DRAM hold
        # ([0, 1]) ends: that hold counts as ended, so request 1's DRAM
        # request is granted at once, as after the event replay's hold
        # end (a timed event, fired before the instant's ready events).
        stream = arrivals(0.0, 1.0)
        profiles = grid_profile((layer(2.0, 1.0),), False)
        seen = watch_materializations(monkeypatch)
        elided = payload(simulate_serving(
            stream, SchedulerConfig(max_inflight=2), profiles=profiles,
        ))
        assert seen[0]["running"] == ["dense_core"]
        with monkeypatch.context() as patch:
            elision_off(patch)
            assert payload(simulate_serving(
                stream, SchedulerConfig(max_inflight=2), profiles=profiles,
            )) == elided
        # Request 1: DRAM [1, 2] beside dense queued to [2, 4], spike to
        # 4.25; its DRAM did not wait.
        assert elided["requests"][1][1:3] == (1.0, 4.25)
        assert elided["stats"]["dram"] == (2.0, 0.0, 2)


class TestEventBudget:
    def test_a_lone_program_costs_one_timed_event(self, monkeypatch, profiles):
        """Alone on an idle chip a program is one wake at its finish: no
        positive-delay ``schedule`` call, one ``schedule_at``, and the
        six ready hops of a lone request."""
        stream = [Request(index=0, model="model4", arrival_s=0.0)]
        calls: list[float] = []
        at: list[float] = []
        schedule, schedule_at = Engine.schedule, Engine.schedule_at

        def counted(self, delay, fn):
            calls.append(delay)
            return schedule(self, delay, fn)

        def counted_at(self, time, fn):
            at.append(time)
            return schedule_at(self, time, fn)

        monkeypatch.setattr(Engine, "schedule", counted)
        monkeypatch.setattr(Engine, "schedule_at", counted_at)
        report = simulate_serving(stream, SchedulerConfig(), profiles=profiles)
        assert at == [report.requests[0].finish_s]
        assert len(calls) == 6 and not any(calls)

    def test_a_timeline_turns_elision_off(self, monkeypatch, profiles):
        stream = stream_at(profiles, 1.0, seed=3, n=20)
        elided = count_elisions(monkeypatch)
        recorded = simulate_serving(
            stream, SchedulerConfig(max_inflight=2), profiles=profiles,
            record_timeline=True,
        )
        assert elided == [0]
        with monkeypatch.context() as patch:
            elision_off(patch)
            replayed = simulate_serving(
                stream, SchedulerConfig(max_inflight=2), profiles=profiles,
                record_timeline=True,
            )
        assert recorded.run.timeline == replayed.run.timeline


class TestCounters:
    @pytest.fixture
    def metrics(self):
        obs.disable()
        obs.registry.reset()
        obs.enable(trace=False, metrics=True)
        yield obs.registry
        obs.disable()
        obs.registry.reset()

    def test_elided_and_materialized_programs(self, metrics, monkeypatch, profiles):
        elided = count_elisions(monkeypatch)
        seen = watch_materializations(monkeypatch)
        simulate_serving(
            stream_at(profiles, 2.0, seed=1), SchedulerConfig(max_inflight=2),
            profiles=profiles,
        )
        assert metrics.counter("serve.programs.elided").value == elided[0] > 0
        assert metrics.counter("serve.programs.materialized").value == len(seen) > 0


# -- fleets -------------------------------------------------------------------

def digest_fields(digest) -> dict:
    """Every ``WindowDigest`` field but the worker's wall time; the
    latency and wait samples compare as tuples of floats."""
    return {
        field.name: getattr(digest, field.name)
        for field in dataclasses.fields(digest) if field.name != "wall_s"
    }


def capture_digests(monkeypatch) -> list:
    digests: list = []
    step = sharding.ShardState.step

    def stepped(self, *args, **kwargs):
        digest = step(self, *args, **kwargs)
        digests.append(digest_fields(digest))
        return digest

    monkeypatch.setattr(sharding.ShardState, "step", stepped)
    return digests


@pytest.mark.parametrize("mode", ["static", "continuous"])
@pytest.mark.parametrize("shards", [1, 2])
def test_autoscaled_fleets(monkeypatch, mode, shards):
    latency = request_profile("model4").single_latency_s
    stream = flash_crowd_arrivals(
        300, 0.3 / latency, "model2:0.4+model4:0.6", seed=4,
        spike_at_s=0.01, spike_duration_s=0.015, spike_factor=8.0,
    )

    def run(patch):
        digests = capture_digests(patch)
        report = simulate_cluster_sharded(
            stream, homogeneous_fleet(2 * shards),
            SchedulerConfig(max_batch=2, max_inflight=2, mode=mode),
            autoscale=AutoscaleConfig(
                interval_s=20 * latency, high_pressure=0.5,
                low_pressure=0.05, max_chips=6 * shards,
            ),
            sharding=ShardingConfig(num_shards=shards, window_s=0.01),
        )
        return report.to_dict(), digests

    with monkeypatch.context() as patch:
        elided = count_elisions(patch)
        report, digests = run(patch)
    assert elided[0] > 0
    actions = {event["action"] for event in report["autoscaler_events"]}
    assert actions == {"add", "drain"}
    with monkeypatch.context() as patch:
        elision_off(patch)
        assert run(patch) == (report, digests)


# -- grid-quantized property streams ----------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

GRID = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])


@st.composite
def grid_layers(draw):
    phase = draw(st.sampled_from(["ATN", "MLP", "P1"]))
    return LayerTiming(
        block=0, kind=f"k{phase}", phase=phase,
        dense_s=draw(GRID), sparse_s=draw(GRID), attention_s=draw(GRID),
        spike_gen_s=draw(GRID), weight_dram_s=draw(GRID),
        activation_dram_s=draw(GRID),
    )


@st.composite
def grid_cases(draw):
    profiles = {}
    for name in draw(st.sampled_from([("a",), ("a", "b")])):
        timings = tuple(draw(st.lists(grid_layers(), min_size=0, max_size=5)))
        profiles[name] = RequestProfile(
            model=name, timings=timings,
            single_latency_s=sum(max(t.compute_s, t.dram_s(1)) for t in timings),
            scheduled=draw(st.booleans()),
        )
    n = draw(st.integers(1, 8))
    slots = sorted(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n)))
    stream = [
        Request(
            index=i, model=draw(st.sampled_from(sorted(profiles))),
            arrival_s=0.25 * slot, priority=draw(st.integers(0, 1)),
        )
        for i, slot in enumerate(slots)
    ]
    scheduler = SchedulerConfig(
        max_batch=draw(st.integers(1, 3)),
        max_inflight=draw(st.integers(1, 3)),
        mode=draw(st.sampled_from(["static", "continuous"])),
    )
    return profiles, stream, scheduler


@given(case=grid_cases())
def test_grid_streams_match_with_elision_off(case):
    profiles, stream, scheduler = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_elision_invisible(monkeypatch, lambda: payload(
            simulate_serving(stream, scheduler, profiles=profiles)
        ))


@given(
    timings=st.lists(grid_layers(), min_size=1, max_size=6),
    batch=st.integers(1, 3),
    starts=st.lists(st.integers(0, 24), min_size=1, max_size=3),
)
def test_grid_replays_on_one_machine(timings, batch, starts):
    """Replays started straight on one machine (serial and prefetch
    alternately, at grid instants) finish and account alike."""
    def run(elide):
        with pytest.MonkeyPatch.context() as patch:
            if not elide:
                elision_off(patch)
            engine = Engine()
            machine = BishopMachine(engine)
            finished: list = []
            for k, start in enumerate(sorted(starts)):
                engine.run(until=0.25 * start)
                kind = ScheduledReplay if k % 2 else SerialReplay
                kind(engine, machine, tuple(timings), batch=batch).start(
                    lambda k=k: finished.append((k, engine.now))
                )
            engine.run()
            return finished, [
                dataclasses.astuple(unit.stats) for unit in machine.units
            ]

    assert run(True) == run(False)
