"""One-shard fleet runs against the single-engine records they replace.

``single_process_golden.json`` holds two fleet scenarios exactly as a
single-engine fleet simulator (one clock, one router, a reactive
autoscaler process) recorded them: per-request ``(index, start_s,
finish_s, batch_size, chip)`` records, the shed indices and the report
payload.  The one-shard fleet simulator must reproduce them: counts,
scaling decisions and accounting compare with ``==`` (float sums within
1e-12, since summation order differs), and the latency percentiles
equal those of a :class:`~repro.serve.sketch.LatencySketch` built from
the recorded samples — the same multiset gives the same sketch, so no
tolerance applies to them.

The records are data, never regenerated: the simulator that wrote them
is gone.
"""

import json
from pathlib import Path

import pytest

from repro.serve import LatencySketch, latency_stats

from ..serve.test_static_golden import FLEET_SCENARIOS

RECORDS = json.loads(
    Path(__file__).with_name("single_process_golden.json").read_text()
)
REL = 1e-12


@pytest.fixture(scope="module", params=sorted(FLEET_SCENARIOS))
def case(request):
    stream_fn, run = FLEET_SCENARIOS[request.param]
    stream = stream_fn()
    return stream, run(stream), RECORDS[request.param]


def sketch_ms(samples: list[float]) -> dict[str, float]:
    sketch = LatencySketch()
    sketch.add_many(samples)
    return latency_stats(sketch).percentiles_ms


def approx_tree(value):
    """``value`` with every float wrapped in ``pytest.approx(rel=REL)``."""
    if isinstance(value, dict):
        return {key: approx_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [approx_tree(item) for item in value]
    if isinstance(value, float):
        return pytest.approx(value, rel=REL)
    return value


def test_records_cover_both_scenarios():
    assert sorted(RECORDS) == sorted(FLEET_SCENARIOS)


def test_counts_and_sheds(case):
    _, report, record = case
    golden = record["report"]
    assert report.served == golden["served"] == len(record["requests"])
    assert report.shed == golden["shed"] == len(record["shed"])
    assert report.num_requests == golden["num_requests"]
    assert report.shed_by_model == golden["shed_by_model"]
    served = {name: 0 for name in golden["fleet"]["chips"]}
    for _, _, _, _, chip in record["requests"]:
        served[chip] += 1
    assert {
        name: chip.requests_served for name, chip in report.chips.items()
    } == served
    assert report.final_accepting_chips == golden["fleet"][
        "final_accepting_chips"
    ]


def test_chip_accounting(case):
    _, report, record = case
    payload = report.to_dict()
    assert payload["fleet"]["chips"] == approx_tree(
        record["report"]["fleet"]["chips"]
    )
    for key in ("energy_mj", "horizon_s", "throughput_rps", "offered_rps"):
        assert payload[key] == approx_tree(record["report"][key]), key


def test_scaling_events(case):
    _, report, record = case
    events = [event.to_dict() for event in report.scaling_events]
    assert events == approx_tree(record["report"]["autoscaler_events"])


def test_latency_percentiles_equal_the_sketch_of_recorded_samples(case):
    stream, report, record = case
    arrival = {request.index: request.arrival_s for request in stream}
    latencies = [finish - arrival[i] for i, _, finish, _, _ in record["requests"]]
    waits = [start - arrival[i] for i, start, _, _, _ in record["requests"]]
    assert report.latency_percentiles_ms == sketch_ms(latencies)
    assert report.latency_mean_ms == pytest.approx(
        sum(latencies) / len(latencies) * 1e3, rel=REL
    )
    assert report.latency_max_ms == max(latencies) * 1e3
    assert report.queue_wait_mean_ms == pytest.approx(
        sum(waits) / len(waits) * 1e3, rel=REL
    )
    golden = record["report"]["latency_ms"]
    assert report.latency_mean_ms == pytest.approx(golden["mean"], rel=REL)
    assert report.latency_max_ms == golden["max"]


def test_tenant_blocks(case):
    stream, report, record = case
    golden = record["report"].get("tenants", {})
    assert set(report.tenants) == set(golden)
    tenant_of = {request.index: request.tenant for request in stream}
    arrival = {request.index: request.arrival_s for request in stream}
    for name, block in golden.items():
        ours = report.tenants[name]
        for key in ("served", "shed", "weight", "quota"):
            assert ours[key] == block[key], (name, key)
        for key in ("service_s", "service_share"):
            assert ours[key] == pytest.approx(block[key], rel=REL), (name, key)
        samples = [
            finish - arrival[i]
            for i, _, finish, _, _ in record["requests"]
            if tenant_of[i] == name
        ]
        latency = dict(ours["latency_ms"])
        assert latency.pop("mean") == pytest.approx(
            block["latency_ms"]["mean"], rel=REL
        )
        assert latency.pop("max") == block["latency_ms"]["max"]
        assert latency == sketch_ms(samples)
