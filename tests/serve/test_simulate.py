"""End-to-end serving simulation: queueing, batching, reporting."""

import json
import math

import pytest

from repro.serve import (
    Request,
    SchedulerConfig,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

MODEL = "model4"


@pytest.fixture(scope="module")
def profile():
    return request_profile(MODEL)


def lone_request(at_s=0.0):
    return [Request(index=0, model=MODEL, arrival_s=at_s)]


def spaced_requests(n, gap_s):
    return [
        Request(index=i, model=MODEL, arrival_s=i * gap_s) for i in range(n)
    ]


class TestSingleRequest:
    def test_latency_equals_uncontended_inference(self, profile):
        report = simulate_serving(lone_request(), SchedulerConfig())
        assert report.num_requests == 1
        assert report.latency_mean_ms == pytest.approx(
            profile.single_latency_s * 1e3, rel=1e-9
        )
        assert report.queue_wait_mean_ms == pytest.approx(0.0, abs=1e-9)

    def test_widely_spaced_requests_see_no_queueing(self, profile):
        gap = profile.single_latency_s * 10
        report = simulate_serving(spaced_requests(5, gap), SchedulerConfig())
        assert report.latency_max_ms == pytest.approx(
            profile.single_latency_s * 1e3, rel=1e-9
        )


class TestQueueing:
    def test_simultaneous_arrivals_queue(self, profile):
        requests = [
            Request(index=i, model=MODEL, arrival_s=0.0) for i in range(4)
        ]
        report = simulate_serving(
            requests, SchedulerConfig(max_batch=1, max_inflight=1)
        )
        single_ms = profile.single_latency_s * 1e3
        assert report.latency_max_ms == pytest.approx(4 * single_ms, rel=1e-9)
        assert report.queue_wait_mean_ms > 0

    def test_higher_load_raises_tail_latency(self, profile):
        rate_low = 0.2 / profile.single_latency_s
        rate_high = 0.9 / profile.single_latency_s
        low = simulate_serving(
            poisson_arrivals(200, rate_low, MODEL, seed=3), SchedulerConfig()
        )
        high = simulate_serving(
            poisson_arrivals(200, rate_high, MODEL, seed=3), SchedulerConfig()
        )
        assert high.latency_percentiles_ms["p95"] > low.latency_percentiles_ms["p95"]

    def test_deterministic(self):
        requests = poisson_arrivals(60, 2000.0, MODEL, seed=5)
        a = simulate_serving(requests, SchedulerConfig(max_batch=2, max_inflight=2))
        b = simulate_serving(requests, SchedulerConfig(max_batch=2, max_inflight=2))
        assert a.to_dict() == b.to_dict()


class TestBatching:
    def test_backlog_forms_batches(self, profile):
        rate = 3.0 / profile.single_latency_s  # overload -> queues form
        requests = poisson_arrivals(120, rate, MODEL, seed=1)
        fifo = simulate_serving(requests, SchedulerConfig(max_batch=1))
        batched = simulate_serving(requests, SchedulerConfig(max_batch=8))
        assert fifo.mean_batch_size == 1.0
        assert batched.mean_batch_size > 1.5

    def test_batching_amortizes_energy(self, profile):
        rate = 3.0 / profile.single_latency_s
        requests = poisson_arrivals(120, rate, MODEL, seed=1)
        fifo = simulate_serving(requests, SchedulerConfig(max_batch=1))
        batched = simulate_serving(requests, SchedulerConfig(max_batch=8))
        assert batched.dynamic_energy_mj < fifo.dynamic_energy_mj

    def test_batch_members_share_finish_time(self):
        requests = [
            Request(index=i, model=MODEL, arrival_s=0.0) for i in range(3)
        ]
        report = simulate_serving(requests, SchedulerConfig(max_batch=4))
        finishes = {r.finish_s for r in report.requests}
        assert len(finishes) == 1
        assert all(r.batch_size == 3 for r in report.requests)


class TestInflight:
    def test_overlap_beats_strict_serial(self, profile):
        """Two inferences in flight overlap on different cores."""
        requests = [
            Request(index=i, model=MODEL, arrival_s=0.0) for i in range(6)
        ]
        serial = simulate_serving(requests, SchedulerConfig(max_inflight=1))
        overlapped = simulate_serving(requests, SchedulerConfig(max_inflight=2))
        assert overlapped.horizon_s < serial.horizon_s


class TestArrivals:
    @pytest.mark.parametrize("arrival_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_names_the_request(self, profile, arrival_s):
        # NaN was served at the previous arrival time with a NaN latency.
        stream = [
            Request(index=0, model=MODEL, arrival_s=0.0),
            Request(index=1, model=MODEL, arrival_s=arrival_s),
            Request(index=2, model=MODEL, arrival_s=0.001),
        ]
        with pytest.raises(ValueError, match="request 1 has a non-finite arrival_s"):
            simulate_serving(stream, SchedulerConfig(), profiles={MODEL: profile})


class TestReport:
    def test_json_round_trip(self):
        report = simulate_serving(
            poisson_arrivals(30, 1000.0, MODEL, seed=0), SchedulerConfig()
        )
        payload = json.loads(json.dumps(report.to_dict(), default=float))
        assert payload["num_requests"] == 30
        assert set(payload["latency_ms"]) == {"mean", "max", "p50", "p90", "p95", "p99"}
        assert 0.0 <= payload["utilization"]["dense_core"] <= 1.0
        assert payload["energy_mj"]["per_request"] > 0

    def test_percentiles_ordered(self):
        report = simulate_serving(
            poisson_arrivals(100, 3000.0, MODEL, seed=0), SchedulerConfig()
        )
        p = report.latency_percentiles_ms
        assert p["p50"] <= p["p90"] <= p["p95"] <= p["p99"]

    def test_timeline_recording_optional(self):
        requests = lone_request()
        without = simulate_serving(requests, SchedulerConfig())
        with_tl = simulate_serving(requests, SchedulerConfig(), record_timeline=True)
        assert without.run.timeline == []
        assert len(with_tl.run.timeline) > 0

    def test_empty_stream_yields_empty_report(self):
        report = simulate_serving([], SchedulerConfig())
        assert report.num_requests == 0
        assert report.throughput_rps == 0.0
        assert report.latency_percentiles_ms["p99"] == 0.0
        json.dumps(report.to_dict(), allow_nan=False)  # strict-JSON clean

    def test_caller_profiles_dict_not_mutated(self):
        profiles = {}
        simulate_serving(lone_request(), SchedulerConfig(), profiles=profiles)
        assert profiles == {}

    def test_single_request_report_is_strict_json(self):
        report = simulate_serving(lone_request(), SchedulerConfig())
        text = json.dumps(report.to_dict(), allow_nan=False)  # no Infinity/NaN
        assert json.loads(text)["offered_rps"] == 0.0

    def test_profile_cache_shared_across_call_styles(self):
        a = request_profile(MODEL)
        b = request_profile(MODEL, bs_t=2, bs_n=4, seed=0)
        c = request_profile(MODEL, 2, 4, 0)
        assert a is b is c
