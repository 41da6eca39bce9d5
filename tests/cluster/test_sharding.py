"""Sharded cluster simulation: conformance, windows, processes, scaling."""

import json
import math

import pytest

from repro.cluster import (
    AdmissionConfig,
    AutoscaleConfig,
    ChipSpec,
    FleetSpec,
    ShardingConfig,
    auto_window_s,
    homogeneous_fleet,
    partition_fleet,
    simulate_cluster_sharded,
)
from repro.cluster import sharding
from repro.serve import (
    Request,
    SchedulerConfig,
    flash_crowd_arrivals,
    poisson_arrivals,
    request_profile,
)

MODEL = "model4"


@pytest.fixture(scope="module")
def capacity():
    return 1.0 / request_profile(MODEL).single_latency_s


def sharded(stream, fleet, scheduler=None, *, shards=2, window_s=0.05, **kw):
    config = ShardingConfig(
        num_shards=shards,
        window_s=window_s,
        jobs=kw.pop("jobs", 1),
        shard_policy=kw.pop("shard_policy", "round_robin"),
    )
    return simulate_cluster_sharded(
        stream, fleet, scheduler, sharding=config, **kw
    )


class TestPartition:
    def test_interleaved_deal_keeps_global_indices(self):
        fleet = homogeneous_fleet(8)
        shards = partition_fleet(fleet, 3)
        assert [[i for i, _ in shard] for shard in shards] == [
            [0, 3, 6], [1, 4, 7], [2, 5],
        ]

    def test_one_shard_is_the_whole_fleet(self):
        fleet = homogeneous_fleet(4)
        (shard,) = partition_fleet(fleet, 1)
        assert [i for i, _ in shard] == [0, 1, 2, 3]

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            partition_fleet(homogeneous_fleet(4), 0)
        with pytest.raises(ValueError, match="cannot split"):
            partition_fleet(homogeneous_fleet(2), 3)


class TestArrivals:
    @pytest.mark.parametrize("arrival_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_names_the_request(self, monkeypatch, arrival_s):
        # A NaN arrival is never `< until`, so the window loop could never
        # pass it: fail here rather than hang if the loop is reached.
        def window(self):
            raise AssertionError("the window loop ran")

        monkeypatch.setattr(sharding._Coordinator, "window", window)
        stream = [
            Request(index=0, model="model1", arrival_s=0.0),
            Request(index=1, model="model1", arrival_s=arrival_s),
            Request(index=2, model="model1", arrival_s=0.001),
        ]
        with pytest.raises(ValueError, match="request 1 has a non-finite arrival_s"):
            simulate_cluster_sharded(stream, homogeneous_fleet(2))


class TestShardingConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="shard"):
            ShardingConfig(num_shards=0)
        with pytest.raises(ValueError, match="window_s"):
            ShardingConfig(window_s=0.0)
        with pytest.raises(ValueError, match="jobs"):
            ShardingConfig(jobs=-1)
        with pytest.raises(ValueError, match="shard policy"):
            ShardingConfig(shard_policy="nope")

    @pytest.mark.parametrize(
        "window_s", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_window_rejected(self, window_s):
        # NaN passes a plain `<= 0` check, and a NaN window edge is never
        # reached: the fleet would step forever. Never simulate one here.
        with pytest.raises(ValueError, match="window_s"):
            ShardingConfig(window_s=window_s)

    def test_defaults_are_one_shard(self):
        config = ShardingConfig()
        assert config.num_shards == 1
        assert config.jobs == 1
        assert config.shard_policy == "round_robin"


class TestConformance:
    """Round-robin at both levels over an interleaved partition reproduces
    the one-shard round-robin request for request."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_round_robin_exact_per_chip_assignment(self, capacity, shards):
        fleet = homogeneous_fleet(8)
        stream = poisson_arrivals(240, 4.0 * capacity, MODEL, seed=0)
        scheduler = SchedulerConfig(max_inflight=2)
        # one shard, one window spanning the whole stream
        single = sharded(
            stream, fleet, scheduler, shards=1, window_s=1.0,
            policy="round_robin",
        )
        report = sharded(
            stream, fleet, scheduler, shards=shards, policy="round_robin"
        )
        assert report.served == single.served == 240
        for name, chip in single.chips.items():
            assert report.chips[name].requests_served == chip.requests_served
        # identical sample multisets → identical sketches: percentiles
        # are equal, mean/max/horizon/energy equal up to summation order
        assert report.latency_percentiles_ms == single.latency_percentiles_ms
        assert report.latency_mean_ms == pytest.approx(
            single.latency_mean_ms, rel=1e-9
        )
        assert report.latency_max_ms == pytest.approx(
            single.latency_max_ms, rel=1e-9
        )
        assert report.horizon_s == pytest.approx(single.horizon_s, rel=1e-9)
        assert report.dynamic_energy_mj == pytest.approx(
            single.dynamic_energy_mj, rel=1e-9
        )

    @pytest.mark.parametrize("chips, shards, rho, max_batch", [
        (64, 2, 0.7, 1),
        (64, 8, 0.7, 1),
        (16, 8, 0.7, 1),
        (12, 3, 0.7, 1),
        (6, 6, 0.7, 1),
        (32, 4, 1.2, 1),
        (8, 4, 1.5, 2),
        (9, 3, 0.4, 4),
    ])
    def test_auto_window_conformance_grid(
        self, capacity, chips, shards, rho, max_batch
    ):
        """Fleet-relative load with the auto window (trace span / 16): the
        per-chip assignment is identical to the one-shard run, so the
        percentiles are equal."""
        fleet = homogeneous_fleet(chips)
        stream = poisson_arrivals(200, rho * chips * capacity, MODEL, seed=0)
        window_s = auto_window_s(0.0, stream[-1].arrival_s, 16)
        scheduler = SchedulerConfig(max_batch=max_batch, max_inflight=2)
        single = sharded(
            stream, fleet, scheduler, shards=1, window_s=window_s,
            policy="round_robin",
        )
        report = sharded(
            stream, fleet, scheduler, shards=shards, window_s=window_s,
            policy="round_robin",
        )
        assert report.served == single.served == 200
        for name, chip in single.chips.items():
            assert report.chips[name].requests_served == chip.requests_served
        assert report.latency_percentiles_ms == single.latency_percentiles_ms

    def test_window_size_does_not_change_the_outcome(self, capacity):
        fleet = homogeneous_fleet(4)
        stream = poisson_arrivals(160, 3.0 * capacity, MODEL, seed=1)
        coarse = sharded(stream, fleet, shards=2, window_s=0.5)
        fine = sharded(stream, fleet, shards=2, window_s=0.002)
        assert len(fine.windows) > len(coarse.windows)
        assert fine.served == coarse.served
        for name, chip in coarse.chips.items():
            assert fine.chips[name].requests_served == chip.requests_served
        assert fine.latency_mean_ms == pytest.approx(
            coarse.latency_mean_ms, rel=1e-9
        )
        assert fine.latency_percentiles_ms == coarse.latency_percentiles_ms

    def test_worker_processes_match_inline_exactly(self, capacity):
        """jobs=2 (real process pool) is byte-identical to jobs=1 (inline)."""
        fleet = homogeneous_fleet(4)
        stream = poisson_arrivals(120, 3.0 * capacity, MODEL, seed=2)
        inline = sharded(stream, fleet, shards=2, jobs=1)
        pooled = sharded(stream, fleet, shards=2, jobs=2)
        assert inline.to_dict() == pooled.to_dict()


class TestShardRouting:
    def test_least_backlog_spreads_and_serves_everything(self, capacity):
        fleet = homogeneous_fleet(8)
        stream = poisson_arrivals(240, 4.0 * capacity, MODEL, seed=3)
        report = sharded(
            stream, fleet, shards=4, shard_policy="least_backlog",
            policy="least_work",
        )
        assert report.served == 240
        assert report.shed == 0
        served = [c.requests_served for c in report.chips.values()]
        assert all(count > 0 for count in served)

    def test_placement_restriction_respected_across_shards(self):
        # model4 lives only on chips 1 and 3 → shard 1 (of 2); every
        # request must land there, none on shard 0's chips
        fleet = FleetSpec((
            ChipSpec(models=("model1",)),
            ChipSpec(models=("model1", "model4")),
            ChipSpec(models=("model1",)),
            ChipSpec(models=("model4",)),
        ))
        stream = [
            Request(index=i, model=MODEL, arrival_s=i * 1e-3)
            for i in range(12)
        ]
        report = sharded(stream, fleet, shards=2)
        assert report.shed == 0
        assert report.chips["chip0"].requests_served == 0
        assert report.chips["chip2"].requests_served == 0
        assert (
            report.chips["chip1"].requests_served
            + report.chips["chip3"].requests_served
        ) == 12

    @pytest.mark.parametrize("window_s", [2e-5, 5e-4, 1.0])
    def test_queue_full_snapshot_does_not_shed_at_the_coordinator(
        self, capacity, window_s
    ):
        """A shard whose queues were full at the last window edge still
        receives its model's requests; its front door admits or sheds at
        arrival time, so sheds do not depend on the window."""
        stream = poisson_arrivals(150, 6.0 * capacity, MODEL, seed=3)
        scheduler = SchedulerConfig(max_batch=2, max_inflight=1)
        admission = AdmissionConfig(queue_capacity=2)
        reference = sharded(
            stream, homogeneous_fleet(2), scheduler, shards=1,
            window_s=1.0, admission=admission,
        )
        report = sharded(
            stream, homogeneous_fleet(2), scheduler, shards=1,
            window_s=window_s, admission=admission,
        )
        assert reference.shed > 0
        assert report.shed == reference.shed
        for name, chip in reference.chips.items():
            assert report.chips[name].requests_served == chip.requests_served
        assert report.latency_percentiles_ms == reference.latency_percentiles_ms
        assert report.latency_mean_ms == pytest.approx(
            reference.latency_mean_ms, rel=1e-12
        )

    def test_unplaceable_workload_rejected(self):
        fleet = FleetSpec((ChipSpec(models=("model1",)),))
        stream = [Request(index=0, model=MODEL, arrival_s=0.0)]
        with pytest.raises(ValueError, match="not placed"):
            simulate_cluster_sharded(stream, fleet)


class TestAdmission:
    def test_shedding_accounting_closes(self, capacity):
        stream = poisson_arrivals(200, 6.0 * capacity, MODEL, seed=0)
        report = sharded(
            stream,
            homogeneous_fleet(2),
            SchedulerConfig(max_inflight=1),
            shards=2,
            admission=AdmissionConfig(queue_capacity=2),
        )
        assert report.shed > 0
        assert report.served + report.shed == report.num_requests == 200
        assert report.shed_by_model == {MODEL: report.shed}
        assert sum(w.shed for w in report.windows) == report.shed
        json.dumps(report.to_dict(), allow_nan=False)


class TestWindowsAndSlo:
    def test_window_series_accounts_for_every_request(self, capacity):
        stream = poisson_arrivals(150, 3.0 * capacity, MODEL, seed=4)
        report = sharded(stream, homogeneous_fleet(4), shards=2, slo_ms=5.0)
        assert sum(w.arrivals for w in report.windows) == 150
        assert sum(w.served for w in report.windows) == report.served
        assert report.windows[-1].backlog == 0
        assert report.num_shards == 2
        assert report.slo is not None
        assert 0.0 <= report.slo["attainment"] <= 1.0
        assert report.slo["violations"] == round(
            (1.0 - report.slo["attainment"]) * report.served
        )
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert payload["sharding"]["num_shards"] == 2
        assert len(payload["sharding"]["windows"]) == len(report.windows)

    def test_slo_attainment_degrades_under_overload(self, capacity):
        scheduler = SchedulerConfig(max_inflight=1)
        lean = poisson_arrivals(100, 0.5 * capacity, MODEL, seed=5)
        slammed = poisson_arrivals(100, 8.0 * capacity, MODEL, seed=5)
        slo = 2 * request_profile(MODEL).single_latency_s * 1e3
        easy = sharded(
            lean, homogeneous_fleet(2), scheduler, shards=2, slo_ms=slo
        )
        hard = sharded(
            slammed, homogeneous_fleet(2), scheduler, shards=2, slo_ms=slo
        )
        assert easy.slo["attainment"] > hard.slo["attainment"]

    def test_empty_stream(self):
        report = sharded([], homogeneous_fleet(2))
        assert report.num_requests == 0
        assert report.throughput_rps == 0.0
        json.dumps(report.to_dict(), allow_nan=False)


class TestWindowedAutoscale:
    def test_flash_crowd_triggers_add_then_drain(self, capacity):
        # early spike, long base-rate tail: pressure spikes (replicas are
        # added) then collapses (the extras drain back out)
        stream = flash_crowd_arrivals(
            800, 0.4 * capacity, MODEL, seed=0,
            spike_at_s=0.02, spike_duration_s=0.03, spike_factor=8.0,
        )
        mean_latency = request_profile(MODEL).single_latency_s
        report = sharded(
            stream,
            homogeneous_fleet(2),
            SchedulerConfig(max_inflight=2),
            shards=2,
            window_s=0.02,
            autoscale=AutoscaleConfig(
                interval_s=20 * mean_latency,
                high_pressure=0.5,
                low_pressure=0.05,
                max_chips=6,
            ),
        )
        actions = [event.action for event in report.scaling_events]
        assert "add" in actions
        assert "drain" in actions
        assert report.served + report.shed == 800
        # added replicas exist in the per-chip table with a start time
        added = [
            name for name, chip in report.chips.items() if chip.added_s > 0
        ]
        assert added
        json.dumps(report.to_dict(), allow_nan=False)


class TestDeterminism:
    def test_repeat_runs_identical(self, capacity):
        stream = poisson_arrivals(120, 3.0 * capacity, MODEL, seed=6)
        fleet = homogeneous_fleet(4)
        a = sharded(stream, fleet, shards=2, shard_policy="least_backlog")
        b = sharded(stream, fleet, shards=2, shard_policy="least_backlog")
        assert a.to_dict() == b.to_dict()


class TestExperiments:
    def test_planet_scale_smoke(self):
        from repro.harness import run_experiment

        result = run_experiment(
            "cluster_planet_scale",
            chips=16, shards=2, num_requests=60, trace="regional",
        )
        assert result["served"] + result["shed"] == 60
        assert result["slo"] is not None
        assert result["fleet_by_kind"]["standard"]["chips"] == 16
        assert sum(w["arrivals"] for w in result["windows"]) == 60
        json.dumps(result, allow_nan=False)

    @pytest.mark.parametrize("name", ["cluster_planet_scale"])
    def test_negative_window_rejected(self, name):
        # 0 means "auto"; a negative window is an error, not "auto"
        from repro.harness import run_experiment

        with pytest.raises(ValueError, match="window_ms must be >= 0"):
            run_experiment(
                name, window_ms=-5.0, chips=8, shards=2, num_requests=50
            )
