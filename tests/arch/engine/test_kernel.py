"""Discrete-event kernel semantics: clock, resources, joins, gates.

``src``'s :class:`~repro.arch.engine.kernel.Engine` runs callbacks and
capacity-1 ``Resource.hold`` occupancies only.  The process cases —
holds, acquires, joins, gates, ``Await`` and capacity-k resources — run
on :class:`~.reference_kernel.ProcessEngine`, the process kernel the
test oracles use, which is ``src``'s engine plus process stepping.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.arch.engine import BishopMachine, Engine, LayerTiming, TimelineEntry
from repro.arch.engine.lanes import ScheduledReplay, SerialReplay

from .reference_kernel import (
    Acquire,
    Await,
    Hold,
    Join,
    ProcessEngine,
    Release,
    WaitFor,
)
from .reference_lanes import use


class TestClockAndHold:
    def test_hold_advances_clock(self):
        engine = ProcessEngine()

        def proc():
            yield Hold(2.5)
            yield Hold(1.5)

        engine.spawn(proc())
        assert engine.run() == pytest.approx(4.0)

    def test_parallel_processes_overlap(self):
        engine = ProcessEngine()
        for _ in range(3):
            engine.spawn(iter([Hold(5.0)]))
        assert engine.run() == pytest.approx(5.0)

    def test_negative_hold_rejected(self):
        with pytest.raises(ValueError):
            Hold(-1.0)

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_hold_rejected(self, duration):
        # NaN compares False to everything, so `duration < 0` alone would
        # accept it and corrupt the heap's time ordering.
        with pytest.raises(ValueError, match="non-finite"):
            Hold(duration)

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_schedule_rejected(self, delay):
        with pytest.raises(ValueError, match="non-finite"):
            Engine().schedule(delay, lambda: None)

    @pytest.mark.parametrize(
        "until", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_until_rejected(self, until):
        engine = ProcessEngine()
        engine.spawn(iter([Hold(10.0)]))
        with pytest.raises(ValueError, match="non-finite"):
            engine.run(until=until)
        assert engine.now == 0.0

    def test_run_until_stops_early(self):
        engine = ProcessEngine()
        engine.spawn(iter([Hold(10.0)]))
        assert engine.run(until=3.0) == pytest.approx(3.0)
        # the remaining event still fires on the next run
        assert engine.run() == pytest.approx(10.0)

    def test_run_until_advances_empty_heap(self):
        # The clock must land on `until` whether events remain or not —
        # incremental window-stepped draining relies on a consistent clock.
        engine = Engine()
        assert engine.run(until=4.0) == 4.0
        assert engine.now == 4.0

    def test_run_until_after_drain_advances(self):
        engine = ProcessEngine()
        engine.spawn(iter([Hold(1.0)]))
        assert engine.run(until=5.0) == 5.0

    def test_run_until_never_moves_clock_backwards(self):
        engine = ProcessEngine()
        engine.spawn(iter([Hold(3.0)]))
        engine.run()
        assert engine.run(until=1.0) == 3.0

    def test_run_until_never_moves_clock_backwards_with_pending_events(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(engine.now))
        assert engine.run(until=5.0) == 5.0
        assert engine.run(until=3.0) == 5.0
        assert engine.now == 5.0
        assert engine.run() == 10.0
        assert fired == [10.0]

    def test_run_until_in_the_past_fires_nothing(self):
        engine = Engine()
        engine.run(until=5.0)
        fired = []
        engine.schedule(0.0, lambda: fired.append(engine.now))
        assert engine.run(until=3.0) == 5.0
        assert fired == []
        assert engine.run(until=5.0) == 5.0
        assert fired == [5.0]

    def test_delay_too_small_to_move_the_clock_fires_now(self):
        # At 2**53 a 1.0 s delay rounds away: the event is due now, after
        # the events already due now, in scheduling order.
        engine = Engine()
        engine.now = 2.0**53
        fired = []
        engine.schedule(1.0, lambda: fired.append("tiny"))
        engine.schedule(0.0, lambda: fired.append("zero"))
        engine.schedule(2.0, lambda: fired.append("timed"))
        assert engine.run() == 2.0**53 + 2.0
        assert fired == ["tiny", "zero", "timed"]

    def test_empty_engine_runs_to_zero(self):
        assert Engine().run() == 0.0

    def test_schedule_at_absolute_times(self):
        # 0.1 + 0.2 != 0.3: an absolute time is kept exactly, where a
        # delay is added to `now`.
        engine = Engine()
        engine.now = 0.1
        fired = []
        engine.schedule_at(0.3, lambda: fired.append(("at", engine.now)))
        engine.schedule(0.2, lambda: fired.append(("delay", engine.now)))
        engine.schedule_at(0.1, lambda: fired.append(("now", engine.now)))
        engine.run()
        assert fired == [("now", 0.1), ("at", 0.3), ("delay", 0.1 + 0.2)]

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_schedule_at_rejects_the_past_and_non_finite_times(self, time):
        with pytest.raises(ValueError, match="cannot schedule at"):
            Engine().schedule_at(time, lambda: None)

    def test_adopt_keeps_the_order_of_pending_events(self):
        engine, other = Engine(), Engine()
        fired = []
        for time, tag in ((2.0, "b"), (1.0, "a"), (2.0, "c")):
            other.schedule_at(time, lambda tag=tag: fired.append(tag))
        engine.schedule_at(2.0, lambda: fired.append("own"))
        engine.adopt(other)
        assert not other._heap
        engine.run()
        assert fired == ["a", "own", "b", "c"]

    @pytest.mark.parametrize("due", [1.5, 2.0])
    def test_adopt_refuses_events_not_after_now(self, due):
        engine, other = Engine(), Engine()
        other.schedule_at(due, lambda: None)
        engine.now = 2.0
        with pytest.raises(ValueError, match="cannot adopt"):
            engine.adopt(other)


class TestResources:
    def test_contention_serializes(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        finishes = []

        def proc(name):
            yield Acquire(resource)
            yield Hold(1.0)
            yield Release(resource)
            finishes.append((name, engine.now))

        engine.spawn(proc("a"))
        engine.spawn(proc("b"))
        assert engine.run() == pytest.approx(2.0)
        assert [name for name, _ in finishes] == ["a", "b"]  # FIFO grant order

    def test_capacity_allows_parallelism(self):
        engine = ProcessEngine()
        resource = engine.resource("pool", capacity=2)

        def proc():
            yield Acquire(resource)
            yield Hold(1.0)
            yield Release(resource)

        for _ in range(4):
            engine.spawn(proc())
        assert engine.run() == pytest.approx(2.0)

    def test_busy_and_wait_stats(self):
        engine = ProcessEngine()
        resource = engine.resource("core")

        def proc():
            yield Acquire(resource)
            yield Hold(2.0)
            yield Release(resource)

        engine.spawn(proc())
        engine.spawn(proc())
        engine.run()
        assert resource.stats.busy_s == pytest.approx(4.0)
        assert resource.stats.wait_s == pytest.approx(2.0)  # second waited
        assert resource.stats.acquisitions == 2
        assert resource.stats.utilization(engine.now) == pytest.approx(1.0)

    def test_release_of_idle_resource_raises(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        engine.spawn(iter([Release(resource)]))
        with pytest.raises(RuntimeError, match="idle resource"):
            engine.run()

    def test_duplicate_resource_name_rejected(self):
        engine = Engine()
        engine.resource("core")
        with pytest.raises(ValueError, match="duplicate"):
            engine.resource("core")


class TestHolds:
    """`Resource.hold` occupancies share the FIFO and the stats of
    process waiters; a free unit is held at once, with one event."""

    @staticmethod
    def hold_user(engine, resource, name, duration, log):
        def ended(start):
            log.append((name, start))
        return lambda: resource.hold(duration, ended)

    @staticmethod
    def process_user(engine, resource, name, duration, log):
        yield Acquire(resource)
        log.append((name, engine.now))
        yield Hold(duration)
        yield Release(resource)

    def run_schedule(self, users, capacity=1):
        """``users``: ``(kind, name, request_s, duration)``, request
        times distinct; returns the grant log (in grant order) and the
        resource."""
        engine = ProcessEngine()
        resource = engine.resource("core", capacity)
        log = []
        for kind, name, at, duration in users:
            if kind == "hold":
                engine.schedule(at, self.hold_user(engine, resource, name, duration, log))
            else:
                gen = self.process_user(engine, resource, name, duration, log)
                engine.schedule(at, lambda g=gen: engine.spawn(g))
        engine.run()
        resource._integrate()
        assert resource._then is None
        return sorted(log, key=lambda entry: entry[1]), resource

    def test_process_and_hold_waiters_share_one_fifo(self):
        log, resource = self.run_schedule([
            ("process", "p0", 0.0, 1.0),
            ("hold", "h1", 0.125, 1.0),
            ("process", "p2", 0.25, 1.0),
            ("hold", "h3", 0.375, 1.0),
            ("process", "p4", 0.5, 1.0),
        ])
        assert log == [
            ("p0", 0.0), ("h1", 1.0), ("p2", 2.0), ("h3", 3.0), ("p4", 4.0),
        ]
        assert resource.stats.acquisitions == 5
        assert resource.stats.busy_s == 5.0
        assert resource.stats.wait_s == 0.875 + 1.75 + 2.625 + 3.5

    def test_free_unit_is_held_at_once_with_one_event(self):
        engine = Engine()
        resource = engine.resource("core")
        ended = []
        resource.hold(1.0, ended.append)
        assert resource.in_use == 1 and resource.stats.acquisitions == 1
        assert len(engine._heap) == 1 and not engine._ready
        resource.hold(0.5, ended.append)
        assert resource.queued == 1 and len(engine._heap) == 1
        assert engine.run() == 1.5
        assert ended == [0.0, 1.0]   # each continuation gets its start
        assert resource.in_use == 0 and resource.queued == 0
        assert resource.stats.busy_s == 1.5 and resource.stats.wait_s == 1.0

    def test_capacity_k_grants_k_at_a_time_in_order(self):
        # Holds need a capacity-1 unit; processes still share k units.
        users = [("process", f"u{i}", i / 64, 1.0) for i in range(7)]
        log, resource = self.run_schedule(users, capacity=3)
        assert [name for name, _ in log] == [f"u{i}" for i in range(7)]
        # three units: grants in waves at ~0, 1 and 2 s
        assert [t for _, t in log] == [
            0.0, 1 / 64, 2 / 64, 1.0, 1 + 1 / 64, 1 + 2 / 64, 2.0,
        ]
        assert resource.stats.acquisitions == 7
        assert resource.stats.busy_s == 7.0

    @given(st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 64),                        # request, in 1/8 s
            st.floats(0.0, 4.0, exclude_min=True, allow_subnormal=False),
        ),
        min_size=1, max_size=12,
    ))
    def test_stats_equal_an_all_process_twin(self, users):
        # Distinct request times: a same-instant tie between a hold and a
        # process is broken by their event hops, not by the FIFO.
        mixed = [
            ("hold" if is_hold else "process", f"u{i}", (at * 16 + i) / 128, d)
            for i, (is_hold, at, d) in enumerate(users)
        ]
        twin = [("process", name, at, d) for _, name, at, d in mixed]
        log_mixed, mixed_resource = self.run_schedule(mixed)
        log_twin, twin_resource = self.run_schedule(twin)
        assert log_mixed == log_twin
        assert mixed_resource.stats == twin_resource.stats

    def test_waiter_granted_inside_the_end_is_held_before_then_runs(self):
        engine = Engine()
        resource = engine.resource("core")
        log = []

        def first_ended(start):
            # the queued hold was granted, and its end scheduled, first
            log.append(("first ended", start, engine.now))
            assert resource.in_use == 1 and len(engine._heap) == 1
            assert resource.stats.acquisitions == 2

        def second_ended(start):
            log.append(("second ended", start, engine.now))

        resource.hold(1.0, first_ended)
        resource.hold(2.0, second_ended)     # queued behind the first
        assert engine.run() == 3.0
        assert log == [("first ended", 0.0, 1.0), ("second ended", 1.0, 3.0)]
        assert resource.stats.busy_s == 3.0
        assert resource.stats.wait_s == 1.0
        assert resource.stats.acquisitions == 2

    def test_hold_granted_inside_a_process_release_is_scheduled_at_once(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        log = []

        def holder():
            yield Acquire(resource)
            resource.hold(2.0, lambda start: log.append(("ended", start, engine.now)))
            yield Hold(1.0)
            yield Release(resource)
            # the release granted the hold and scheduled its end
            log.append(("holder resumed", engine.now))
            assert resource.in_use == 1 and len(engine._heap) == 1

        engine.spawn(holder())
        assert engine.run() == 3.0
        assert log == [("holder resumed", 1.0), ("ended", 1.0, 3.0)]
        assert resource.stats.busy_s == 3.0
        assert resource.stats.wait_s == 1.0
        assert resource.stats.acquisitions == 2

    def test_hold_needs_a_capacity_one_resource(self):
        engine = ProcessEngine()
        resource = engine.resource("cores", capacity=3)
        with pytest.raises(ValueError, match="'cores'"):
            resource.hold(1.0, lambda start: None)
        assert resource.in_use == 0 and not engine._heap

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_duration_raises_through_schedule(
        self, duration, monkeypatch
    ):
        engine = Engine()
        resource = engine.resource("core")
        scheduled = []
        original = Engine.schedule

        def counted(self, delay, fn):
            scheduled.append(delay)
            return original(self, delay, fn)

        monkeypatch.setattr(Engine, "schedule", counted)
        with pytest.raises(ValueError, match="non-finite|into the past"):
            resource.hold(duration, lambda start: None)
        assert len(scheduled) == 1

    def test_no_resource_keeps_a_continuation_after_a_run(self):
        # Two contended replays on one chip (a timeline turns elision
        # off): once the engine drains, no unit refers to a replay.
        engine = ProcessEngine()
        machine = BishopMachine(engine)
        timings = (
            LayerTiming(0, "qkv", "MLP", dense_s=1.0, sparse_s=0.5,
                        spike_gen_s=0.25, weight_dram_s=0.5,
                        activation_dram_s=0.25),
            LayerTiming(0, "attn", "ATN", attention_s=0.75, spike_gen_s=0.25,
                        activation_dram_s=0.5),
        )
        timeline = []

        def lane(replay):
            yield Await(replay.start)

        for i, replay in enumerate((SerialReplay, ScheduledReplay, SerialReplay)):
            engine.spawn(lane(replay(engine, machine, timings, f"r{i}",
                                     timeline=timeline)))
        engine.run()
        assert timeline and all(unit.stats.acquisitions for unit in machine.units)
        assert [unit._then for unit in machine.units] == [None] * 5
        assert not any(unit.in_use or unit.queued for unit in machine.units)


class TestAwait:
    def test_process_sleeps_until_the_task_wakes_it(self):
        engine = ProcessEngine()
        log = []

        def start(wake):
            log.append(("started", engine.now))
            engine.schedule(1.5, wake)

        def proc():
            yield Await(start)
            log.append(("resumed", engine.now))

        engine.spawn(proc())
        engine.run()
        assert log == [("started", 0.0), ("resumed", 1.5)]

    def test_wake_inside_start_resumes_at_once(self):
        engine = ProcessEngine()
        resumed = []

        def proc():
            yield Hold(2.0)
            yield Await(lambda wake: wake())
            resumed.append(engine.now)

        engine.spawn(proc())
        engine.run()
        assert resumed == [2.0]


class TestTeardown:
    def test_teardown_drops_events_and_waiters(self):
        engine = ProcessEngine()
        resource = engine.resource("core")

        def proc():
            yield Acquire(resource)
            yield Hold(5.0)

        engine.spawn(proc())
        engine.spawn(proc())
        engine.run(until=1.0)
        assert resource.queued == 1 and engine._heap
        engine.teardown()
        assert not engine._heap and not engine._ready
        assert resource.queued == 0 and engine.resources == {}
        # the stats stay readable through the resource itself
        assert resource.stats.acquisitions == 1


class TestJoinAndGate:
    def test_join_waits_for_child(self):
        engine = ProcessEngine()
        order = []

        def child():
            yield Hold(3.0)
            order.append("child")

        def parent():
            task = engine.spawn(child())
            yield Join(task)
            order.append("parent")

        engine.spawn(parent())
        assert engine.run() == pytest.approx(3.0)
        assert order == ["child", "parent"]

    def test_join_on_finished_process_returns_immediately(self):
        engine = ProcessEngine()
        done = []

        def child():
            yield Hold(1.0)

        def parent(task):
            yield Hold(5.0)
            yield Join(task)   # child finished long ago
            done.append(engine.now)

        task = engine.spawn(child())
        engine.spawn(parent(task))
        engine.run()
        assert done == [pytest.approx(5.0)]

    def test_gate_broadcast(self):
        engine = ProcessEngine()
        woken = []
        gate = engine.gate()

        def waiter(name):
            yield WaitFor(gate)
            woken.append((name, engine.now))

        def signaller():
            yield Hold(2.0)
            gate.signal()

        engine.spawn(waiter("a"))
        engine.spawn(waiter("b"))
        engine.spawn(signaller())
        engine.run()
        assert sorted(n for n, _ in woken) == ["a", "b"]
        assert all(t == pytest.approx(2.0) for _, t in woken)

    def test_unknown_command_raises(self):
        engine = ProcessEngine()
        engine.spawn(iter(["not a command"]), name="rogue")
        with pytest.raises(TypeError, match="'rogue'.*expected a Command"):
            engine.run()


class TestCommandSubclasses:
    """A subclass of a command dispatches exactly as the command it extends."""

    @staticmethod
    def trace(hold_cls, acquire_cls):
        engine = ProcessEngine()
        resource = engine.resource("core")
        log = []

        def proc(name):
            yield acquire_cls(resource)
            log.append((name, "granted", engine.now))
            yield hold_cls(1.5)
            yield Release(resource)
            log.append((name, "released", engine.now))

        engine.spawn(proc("a"))
        engine.spawn(proc("b"))
        return engine.run(), log, resource.stats

    def test_hold_and_acquire_subclasses_run_as_the_base_classes(self):
        class TimedHold(Hold):
            pass

        class TaggedAcquire(Acquire):
            pass

        assert self.trace(TimedHold, TaggedAcquire) == self.trace(Hold, Acquire)

    def test_subclass_keeps_the_base_checks(self):
        class TimedHold(Hold):
            pass

        with pytest.raises(ValueError, match="negative"):
            TimedHold(-1.0)

    def test_non_command_still_raises_naming_the_process(self):
        class NotACommand:
            pass

        engine = ProcessEngine()
        engine.spawn(iter([Hold(1.0), NotACommand()]), name="stray")
        with pytest.raises(TypeError, match="process 'stray' yielded"):
            engine.run()


class TestUseHelper:
    def test_records_timeline(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        timeline = []
        engine.spawn(use(engine, resource, 4.0, timeline, "task", chunks=4))
        engine.run()
        assert len(timeline) == 4
        assert timeline[0].start_s == 0.0
        assert timeline[-1].end_s == pytest.approx(4.0)
        assert all(e.duration_s == pytest.approx(1.0) for e in timeline)
        assert {e.resource for e in timeline} == {"core"}

    def test_chunks_let_competitor_interleave(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        timeline = []
        engine.spawn(use(engine, resource, 4.0, timeline, "chunked", chunks=4))

        def latecomer():
            yield Hold(0.5)
            yield from use(engine, resource, 1.0, timeline, "late", chunks=1)

        engine.spawn(latecomer())
        engine.run()
        late = next(e for e in timeline if e.label == "late")
        # slots in after the first chunk, not after the whole 4s task
        assert late.start_s == pytest.approx(1.0)

    def test_captured_stats_survive_further_running(self):
        from repro.arch.engine import EngineRun

        engine = ProcessEngine()
        resource = engine.resource("core")
        engine.spawn(use(engine, resource, 2.0, label="first"))
        engine.run(until=2.0)
        snapshot = EngineRun.capture(engine)
        engine.spawn(use(engine, resource, 3.0, label="second"))
        engine.run()
        assert snapshot.busy_s("core") == pytest.approx(2.0)
        assert resource.stats.busy_s == pytest.approx(5.0)

    def test_mid_hold_snapshot_counts_elapsed_occupancy(self):
        from repro.arch.engine import EngineRun

        engine = ProcessEngine()
        resource = engine.resource("core")
        engine.spawn(use(engine, resource, 2.0, label="task"))
        engine.run(until=1.0)   # snapshot in the middle of the hold
        snapshot = EngineRun.capture(engine)
        assert snapshot.busy_s("core") == pytest.approx(1.0)
        assert snapshot.utilization()["core"] == pytest.approx(1.0)
        engine.run()
        assert resource.stats.busy_s == pytest.approx(2.0)

    def test_zero_duration_records_zero_width_entry(self):
        # Zero-cost work must stay visible in the timeline (the occupancy
        # report matches the compiled stage list) without ever touching
        # the resource.
        engine = ProcessEngine()
        resource = engine.resource("core")
        timeline = []
        engine.spawn(use(engine, resource, 0.0, timeline, "noop"))
        engine.run()
        assert timeline == [TimelineEntry("core", "noop", 0.0, 0.0)]
        assert timeline[0].duration_s == 0.0
        assert resource.stats.acquisitions == 0
        assert resource.stats.busy_s == 0.0

    def test_zero_duration_entry_lands_at_current_time(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        timeline = []

        def proc():
            yield Hold(2.0)
            yield from use(engine, resource, 0.0, timeline, "noop")

        engine.spawn(proc())
        engine.run()
        assert timeline == [TimelineEntry("core", "noop", 2.0, 2.0)]

    def test_zero_duration_without_timeline_is_silent(self):
        engine = ProcessEngine()
        resource = engine.resource("core")
        engine.spawn(use(engine, resource, 0.0))
        assert engine.run() == 0.0
        assert resource.stats.acquisitions == 0


class TestEventCounters:
    """`engine.events.timed` + `engine.events.ready` count every fired event."""

    @pytest.fixture
    def metrics(self):
        from repro import obs

        obs.disable()
        obs.registry.reset()
        obs.enable(trace=False, metrics=True)
        yield obs.registry
        obs.disable()
        obs.registry.reset()

    def test_counters_split_timed_and_ready_events(self, metrics):
        engine = ProcessEngine()
        engine.spawn(iter([Hold(1.0), Hold(0.0)]))
        engine.run()
        # timed: the 1.0 s hold; ready: spawn, the 0 s hold, the final step
        assert metrics.counter("engine.events.timed").value == 1
        assert metrics.counter("engine.events.ready").value == 2

    @staticmethod
    def serve_static():
        from repro.serve import (
            SchedulerConfig,
            poisson_arrivals,
            request_profile,
            simulate_serving,
        )

        profiles = {"model4": request_profile("model4")}
        requests = poisson_arrivals(
            12, 1.5 / profiles["model4"].single_latency_s, "model4", seed=3
        )
        simulate_serving(requests, SchedulerConfig(max_inflight=2), profiles=profiles)

    @staticmethod
    def serve_continuous():
        # The serve_saturated configuration: joins, preemption, priorities
        # and weighted tenants at rho 1.5.
        from repro.serve import (
            SchedulerConfig,
            assign_priorities,
            assign_tenants,
            parse_tenants,
            poisson_arrivals,
            request_profile,
            simulate_serving,
        )

        profiles = {m: request_profile(m) for m in ("model2", "model4")}
        mean = 0.5 * (profiles["model2"].single_latency_s
                      + profiles["model4"].single_latency_s)
        tenants = parse_tenants("gold:3+silver:1")
        requests = poisson_arrivals(24, 1.5 / mean, "model2:0.5+model4:0.5", seed=3)
        requests = assign_priorities(requests, "0:0.8+1:0.2", seed=3)
        requests = assign_tenants(requests, tenants, seed=3)
        simulate_serving(
            requests,
            SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous",
                            allow_join=True, preempt=True),
            profiles=profiles, tenants=tenants,
        )

    @staticmethod
    def cluster_sharded():
        from repro.cluster import (
            ShardingConfig,
            homogeneous_fleet,
            simulate_cluster_sharded,
        )
        from repro.serve import SchedulerConfig, poisson_arrivals

        requests = poisson_arrivals(40, 20000.0, "model2:0.4+model4:0.6", seed=3)
        simulate_cluster_sharded(
            requests, homogeneous_fleet(4),
            SchedulerConfig(max_batch=1, max_inflight=2),
            sharding=ShardingConfig(num_shards=2, window_s=5e-4),
        )

    # (timed, ready) fired on each stream, recorded when the dispatcher,
    # lanes and arrival feeds were generator processes: their callbacks
    # resume at the same points, so every event keeps its place.
    PINNED = {
        "serve_static": (805, 35),
        "serve_continuous": (862, 313),
        "cluster_sharded": (3674, 128),
    }

    @pytest.mark.parametrize("run", sorted(PINNED))
    def test_counters_are_pinned(self, metrics, run):
        getattr(self, run)()
        assert (
            metrics.counter("engine.events.timed").value,
            metrics.counter("engine.events.ready").value,
        ) == self.PINNED[run]

    @pytest.mark.parametrize("run", ["serve_static", "serve_continuous", "cluster_sharded"])
    def test_counters_equal_schedule_calls(self, metrics, monkeypatch, run):
        # Every event, hold ends included, goes through `Engine.schedule`
        # (what perf's `engine.events_per_req` counts) or, for an elided
        # program's one wake, `Engine.schedule_at`.
        scheduled = 0
        original = Engine.schedule
        original_at = Engine.schedule_at

        def counted(self, delay, fn):
            nonlocal scheduled
            scheduled += 1
            return original(self, delay, fn)

        def counted_at(self, time, fn):
            nonlocal scheduled
            scheduled += 1
            return original_at(self, time, fn)

        monkeypatch.setattr(Engine, "schedule", counted)
        monkeypatch.setattr(Engine, "schedule_at", counted_at)
        getattr(self, run)()
        timed = metrics.counter("engine.events.timed").value
        ready = metrics.counter("engine.events.ready").value
        assert timed > 0 and ready > 0
        assert timed + ready == scheduled
