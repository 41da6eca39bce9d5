"""Autoscaler: growth under pressure, drain when idle, bounds.

Without an explicit ``sharding`` the coordination window is the
autoscale interval, so every control tick lands on a window edge.
"""

import pytest

from repro.cluster import (
    AutoscaleConfig,
    ChipSpec,
    FleetSpec,
    ShardingConfig,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.cluster import sharding
from repro.serve import SchedulerConfig, poisson_arrivals, request_profile

from .test_report_golden import SCENARIOS

MODEL = "model4"


@pytest.fixture(scope="module")
def single_latency():
    return request_profile(MODEL).single_latency_s


def autoscale(single_latency, **overrides):
    defaults = dict(interval_s=20 * single_latency, max_chips=4)
    defaults.update(overrides)
    return AutoscaleConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            AutoscaleConfig(interval_s=0.0)
        with pytest.raises(ValueError, match="low_pressure"):
            AutoscaleConfig(interval_s=1.0, low_pressure=2.0, high_pressure=1.0)
        with pytest.raises(ValueError, match="min_chips"):
            AutoscaleConfig(interval_s=1.0, min_chips=5, max_chips=2)

    @pytest.mark.parametrize(
        "interval_s", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_interval_rejected(self, interval_s):
        # NaN passes a plain `<= 0` check, and a NaN tick never arrives.
        with pytest.raises(ValueError, match="interval_s"):
            AutoscaleConfig(interval_s=interval_s)


class TestScaleUp:
    def test_overload_adds_replicas_and_raises_throughput(self, single_latency):
        cap = 1.0 / single_latency
        stream = poisson_arrivals(400, 3.0 * cap, MODEL, seed=0)
        scheduler = SchedulerConfig(max_inflight=2)
        fixed = simulate_cluster_sharded(stream, homogeneous_fleet(1), scheduler)
        scaled = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(1),
            scheduler,
            autoscale=autoscale(single_latency),
        )
        adds = [e for e in scaled.scaling_events if e.action == "add"]
        assert adds, "expected at least one scale-up under 3x overload"
        assert scaled.throughput_rps > fixed.throughput_rps
        assert scaled.latency_percentiles_ms["p99"] < fixed.latency_percentiles_ms["p99"]

    def test_never_exceeds_max_chips(self, single_latency):
        cap = 1.0 / single_latency
        stream = poisson_arrivals(300, 10.0 * cap, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(1),
            SchedulerConfig(max_inflight=2),
            autoscale=autoscale(single_latency, max_chips=2),
        )
        assert len(report.chips) <= 2

    def test_replicas_host_the_full_workload(self, single_latency):
        cap = 1.0 / single_latency
        stream = poisson_arrivals(300, 4.0 * cap, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(1),
            SchedulerConfig(max_inflight=2),
            autoscale=autoscale(single_latency),
        )
        for chip in report.chips.values():
            assert MODEL in chip.models


class TestDrain:
    def test_light_load_drains_down_to_min_chips(self, single_latency):
        cap = 1.0 / single_latency
        # sparse trickle: far below what even one chip needs
        stream = poisson_arrivals(60, 0.05 * cap, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(3),
            SchedulerConfig(max_inflight=2),
            autoscale=autoscale(single_latency, min_chips=1),
        )
        drains = [e for e in report.scaling_events if e.action == "drain"]
        assert drains
        assert report.final_accepting_chips >= 1
        assert report.served == 60  # nothing lost while draining

    def test_drained_chips_stop_accruing_static_energy(self, single_latency):
        cap = 1.0 / single_latency
        stream = poisson_arrivals(60, 0.05 * cap, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(3),
            SchedulerConfig(max_inflight=2),
            autoscale=autoscale(single_latency, min_chips=1),
        )
        drained = [c for c in report.chips.values() if c.drained]
        alive = [c for c in report.chips.values() if not c.drained]
        assert drained and alive
        assert max(c.active_span_s for c in drained) < min(
            c.active_span_s for c in alive
        )

    def test_drain_never_strands_a_placement(self, single_latency):
        """The only chip hosting model1 must not be drained away."""
        cap = 1.0 / single_latency
        fleet = FleetSpec((
            ChipSpec(models=("model1",)),
            ChipSpec(models=(MODEL,)),
            ChipSpec(models=(MODEL,)),
        ))
        requests = poisson_arrivals(40, 0.05 * cap, MODEL, seed=0)
        requests += [
            # late trickle of model1 traffic after long idleness
            type(requests[0])(
                index=len(requests) + i,
                model="model1",
                arrival_s=requests[-1].arrival_s + (i + 1) * 0.2,
            )
            for i in range(3)
        ]
        report = simulate_cluster_sharded(
            requests,
            fleet,
            SchedulerConfig(max_inflight=2),
            autoscale=autoscale(single_latency, min_chips=1),
        )
        assert report.shed == 0
        assert report.chips["chip0"].requests_served == 3


class TestDrainTarget:
    def test_drains_go_to_shards_that_can_drain(self, monkeypatch):
        """A shard's last accepting chip can never be drained, so no drain
        goes to a shard whose last digest shows fewer than two accepting
        chips — on four one-chip shards, only to the one holding an added
        replica."""
        decide = sharding._Coordinator._autoscale_decision
        targets = []

        def spy(self, at_s):
            decision = decide(self, at_s)
            if decision is not None and decision.command[0] == "drain":
                targets.append(self.accepting[decision.shard])
            return decision

        monkeypatch.setattr(sharding._Coordinator, "_autoscale_decision", spy)
        report = SCENARIOS["k4_autoscale"]()
        assert targets and min(targets) >= 2
        drains = [e for e in report.scaling_events if e.action == "drain"]
        assert len(drains) == len(targets)   # no drain was refused


class TestWindowedDecisions:
    """One decision per window, recorded with the pressure it acted on."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_windows_longer_than_the_interval_respect_max_chips(
        self, single_latency, shards
    ):
        # Several ticks fall due in each window; they all see the same
        # digests, so acting on each would add a replica per tick.
        cap = 1.0 / single_latency
        stream = poisson_arrivals(600, 10.0 * cap, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(2 if shards == 2 else 1),
            SchedulerConfig(max_inflight=2),
            autoscale=autoscale(
                single_latency, interval_s=5 * single_latency, max_chips=3
            ),
            sharding=ShardingConfig(
                num_shards=shards, window_s=40 * single_latency
            ),
        )
        assert [e.action for e in report.scaling_events].count("add") >= 1
        assert len(report.chips) <= 3
        assert all(e.accepting_chips <= 3 for e in report.scaling_events)

    def test_events_carry_the_pressure_they_acted_on(self, single_latency):
        cap = 1.0 / single_latency
        stream = poisson_arrivals(300, 3.0 * cap, MODEL, seed=1)
        stream += [
            type(stream[0])(
                index=len(stream) + i,
                model=MODEL,
                arrival_s=stream[-1].arrival_s + (i + 1) * 40 * single_latency,
            )
            for i in range(4)
        ]
        config = autoscale(
            single_latency, high_pressure=0.5, low_pressure=0.05
        )
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(1),
            SchedulerConfig(max_inflight=2),
            autoscale=config,
        )
        actions = [e.action for e in report.scaling_events]
        assert "add" in actions and "drain" in actions
        accepting = 1
        for event in report.scaling_events:
            if event.action == "add":
                assert event.pressure > config.high_pressure
                accepting += 1
            else:
                assert event.pressure < config.low_pressure
                accepting -= 1
            assert event.accepting_chips == accepting
        assert report.final_accepting_chips == accepting
