"""End-to-end fleet simulation: parity, scaling, placement, shedding."""

import json

import pytest

from repro import obs
from repro.cluster import (
    AdmissionConfig,
    ChipSpec,
    FleetSpec,
    ShardingConfig,
    homogeneous_fleet,
    parse_fleet,
    simulate_cluster_sharded,
)

from repro.serve import (
    LatencySketch,
    Request,
    SchedulerConfig,
    latency_stats,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

MODEL = "model4"


def sketched_percentiles(report) -> dict[str, float]:
    """``report``'s exact per-request latencies, quoted through the same
    mergeable sketch a fleet run keeps."""
    sketch = LatencySketch()
    sketch.add_many([r.latency_s for r in report.requests])
    return latency_stats(sketch).percentiles_ms


@pytest.fixture(scope="module")
def capacity():
    return 1.0 / request_profile(MODEL).single_latency_s


class TestSingleChipParity:
    """An N=1 standard cluster IS the single-chip serving simulation."""

    def test_n1_matches_simulate_serving(self, capacity):
        stream = poisson_arrivals(120, 0.7 * capacity, MODEL, seed=0)
        scheduler = SchedulerConfig(max_inflight=2)
        single = simulate_serving(stream, scheduler)
        cluster = simulate_cluster_sharded(stream, homogeneous_fleet(1), scheduler)
        assert cluster.served == single.num_requests
        assert cluster.throughput_rps == pytest.approx(
            single.throughput_rps, rel=1e-9
        )
        assert cluster.latency_percentiles_ms == sketched_percentiles(single)
        assert cluster.latency_mean_ms == pytest.approx(
            single.latency_mean_ms, rel=1e-9
        )

    def test_n1_matches_with_batching(self, capacity):
        stream = poisson_arrivals(100, 1.5 * capacity, MODEL, seed=1)
        scheduler = SchedulerConfig(max_batch=4, max_inflight=2)
        single = simulate_serving(stream, scheduler)
        cluster = simulate_cluster_sharded(stream, homogeneous_fleet(1), scheduler)
        assert cluster.latency_mean_ms == pytest.approx(
            single.latency_mean_ms, rel=1e-9
        )
        assert cluster.dynamic_energy_mj == pytest.approx(
            single.dynamic_energy_mj, rel=1e-9
        )
        assert cluster.latency_percentiles_ms == sketched_percentiles(single)
        # the EngineRun contract (dynamic + static over the powered span)
        # holds identically on both layers
        assert cluster.horizon_s == pytest.approx(
            single.run.makespan_s, rel=1e-9
        )
        total_mj = cluster.dynamic_energy_mj + cluster.static_energy_mj
        assert total_mj * 1e9 == pytest.approx(single.run.energy_pj, rel=1e-9)


class TestScalingCurveExperiment:
    def test_n1_matches_reference_for_nonstandard_kinds(self):
        """rho and the single-chip reference are rated on the fleet's kind."""
        from repro.cluster import chip_config
        from repro.harness import run_experiment
        from repro.harness.experiments import _serve_arrivals

        result = run_experiment(
            "cluster_scaling_curve",
            num_requests=50,
            fleet_sizes="1",
            kind="sparse_heavy",
        )
        point, single = result["points"]["1"], result["single_chip"]
        assert point["throughput_rps"] == pytest.approx(
            single["throughput_rps"], rel=1e-9
        )
        # the experiment's reference quotes exact percentiles; the fleet
        # quotes the sketch of the same samples
        profiles = {
            MODEL: request_profile(MODEL, config=chip_config("sparse_heavy"))
        }
        stream = _serve_arrivals(
            "poisson", 50, result["arrival_rate_rps"], {MODEL: 1.0}, 0, 8.0
        )
        exact = simulate_serving(
            stream, SchedulerConfig(max_inflight=2), profiles=profiles
        )
        assert exact.latency_percentiles_ms["p99"] == single["p99_latency_ms"]
        sketched = sketched_percentiles(exact)
        assert point["p50_latency_ms"] == sketched["p50"]
        assert point["p99_latency_ms"] == sketched["p99"]


class TestScaling:
    def test_four_chips_sustain_3x_single_chip_saturation(self, capacity):
        """The headline acceptance: ≥3× saturation throughput at N=4."""
        stream = poisson_arrivals(400, 5.0 * capacity, MODEL, seed=0)
        scheduler = SchedulerConfig(max_inflight=2)
        single = simulate_serving(stream, scheduler)
        fleet4 = simulate_cluster_sharded(stream, homogeneous_fleet(4), scheduler)
        assert fleet4.throughput_rps >= 3.0 * single.throughput_rps

    def test_throughput_grows_monotonically(self, capacity):
        stream = poisson_arrivals(300, 4.0 * capacity, MODEL, seed=0)
        scheduler = SchedulerConfig(max_inflight=2)
        results = [
            simulate_cluster_sharded(
                stream, homogeneous_fleet(n), scheduler
            ).throughput_rps
            for n in (1, 2, 4)
        ]
        assert results[0] < results[1] < results[2]

    def test_work_spreads_across_chips(self, capacity):
        stream = poisson_arrivals(200, 3.0 * capacity, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream, homogeneous_fleet(4), SchedulerConfig(max_inflight=2)
        )
        assert all(c.requests_served > 0 for c in report.chips.values())


class TestPlacement:
    def test_unplaced_models_route_to_the_replica(self):
        fleet = FleetSpec((
            ChipSpec(models=("model1",)),
            ChipSpec(models=("model1", "model4")),
        ))
        stream = [
            Request(index=i, model="model4", arrival_s=i * 1e-3)
            for i in range(10)
        ]
        report = simulate_cluster_sharded(stream, fleet, SchedulerConfig())
        assert report.chips["chip0"].requests_served == 0
        assert report.chips["chip1"].requests_served == 10
        assert report.shed == 0

    def test_unplaceable_workload_rejected(self):
        fleet = FleetSpec((ChipSpec(models=("model1",)),))
        stream = [Request(index=0, model="model4", arrival_s=0.0)]
        with pytest.raises(ValueError, match="not placed"):
            simulate_cluster_sharded(stream, fleet)


class TestAdmission:
    @pytest.fixture
    def metrics(self):
        obs.disable()
        obs.registry.reset()
        obs.enable(trace=False, metrics=True)
        yield obs.registry
        obs.disable()
        obs.registry.reset()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_shed_counter_equals_reported_sheds(self, capacity, metrics, shards):
        stream = poisson_arrivals(200, 6.0 * capacity, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(2),
            SchedulerConfig(max_inflight=1),
            admission=AdmissionConfig(queue_capacity=2),
            sharding=ShardingConfig(num_shards=shards, window_s=0.002),
        )
        assert report.shed > 0
        assert metrics.counter("serve.shed").value == report.shed

    def test_overload_sheds_instead_of_queueing_unboundedly(self, capacity):
        stream = poisson_arrivals(200, 4.0 * capacity, MODEL, seed=0)
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(1),
            SchedulerConfig(max_inflight=2),
            admission=AdmissionConfig(queue_capacity=4),
        )
        assert report.shed > 0
        assert report.served + report.shed == report.num_requests == 200
        assert report.shed_by_model == {MODEL: report.shed}
        assert sum(w.shed for w in report.windows) == report.shed
        # bounded queue bounds the tail: every served request waited at
        # most ~queue_capacity service times
        assert report.latency_max_ms < 10 * request_profile(MODEL).single_latency_s * 1e3

    def test_all_shed_yields_well_defined_report(self):
        # one chip hosting the model exists, but its queue is permanently
        # full of simultaneous arrivals beyond capacity + inflight
        stream = [
            Request(index=i, model=MODEL, arrival_s=0.0) for i in range(50)
        ]
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(1),
            SchedulerConfig(max_inflight=1),
            admission=AdmissionConfig(queue_capacity=1),
        )
        assert report.shed > 0
        assert report.latency_percentiles_ms["p99"] >= 0.0
        json.dumps(report.to_dict(), allow_nan=False)


class TestReportShape:
    def test_empty_stream(self):
        report = simulate_cluster_sharded([], homogeneous_fleet(2))
        assert report.num_requests == 0
        assert report.throughput_rps == 0.0
        json.dumps(report.to_dict(), allow_nan=False)

    def test_report_is_strict_json(self, capacity):
        stream = poisson_arrivals(50, 0.5 * capacity, MODEL, seed=0)
        report = simulate_cluster_sharded(stream, homogeneous_fleet(2))
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert payload["fleet"]["initial_chips"] == 2
        assert set(payload["fleet"]["chips"]) == {"chip0", "chip1"}
        for chip in payload["fleet"]["chips"].values():
            assert 0.0 <= chip["utilization"]["dense_core"] <= 1.0

    def test_determinism(self, capacity):
        stream = poisson_arrivals(80, 2.0 * capacity, MODEL, seed=3)
        a = simulate_cluster_sharded(stream, homogeneous_fleet(2), policy="sparsity")
        b = simulate_cluster_sharded(stream, homogeneous_fleet(2), policy="sparsity")
        assert a.to_dict() == b.to_dict()

    def test_one_shard_reports_its_window_series(self, capacity):
        stream = poisson_arrivals(50, 0.5 * capacity, MODEL, seed=0)
        report = simulate_cluster_sharded(stream, homogeneous_fleet(2))
        assert report.num_shards == 1
        assert sum(w.served for w in report.windows) == report.served == 50
        payload = report.to_dict()
        assert payload["sharding"]["num_shards"] == 1
        assert payload["sharding"]["num_windows"] == len(report.windows)


class TestHeterogeneousFleets:
    def test_sparsity_beats_round_robin_p99_on_mixed_zoo(self):
        """The routing-ablation acceptance criterion, in miniature."""
        from repro.cluster import fleet_capacity_rps
        from repro.serve import parse_model_mix

        mix = parse_model_mix("model2:0.5+model4:0.5")
        fleet = parse_fleet("dense_heavy:2+sparse_heavy:2")
        rate = 0.85 * fleet_capacity_rps(fleet, mix)
        stream = poisson_arrivals(400, rate, mix, seed=0)
        scheduler = SchedulerConfig(max_inflight=2)
        rr = simulate_cluster_sharded(stream, fleet, scheduler, policy="round_robin")
        affine = simulate_cluster_sharded(stream, fleet, scheduler, policy="sparsity")
        assert affine.latency_percentiles_ms["p99"] < rr.latency_percentiles_ms["p99"]
