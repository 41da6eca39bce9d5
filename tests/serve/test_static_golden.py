"""Static serving pinned to recorded results, compared with ``==``.

Static mode runs the whole compiled program as one quantum of the serving
lane.  ``static_golden.json`` records the report payload (energy,
tenants, per-chip blocks, windows) of single-chip and fleet scenarios,
and for single-chip runs every request's ``(index, start_s, finish_s,
batch_size, chip)``.  Any change to static dispatch order, batch
membership, engine event order or accounting shows up here as an exact
mismatch — there is no tolerance.

Regenerate only for a change meant to alter static results::

    PYTHONPATH=src python tests/serve/test_static_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.cluster import (
    AdmissionConfig,
    AutoscaleConfig,
    ShardingConfig,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.serve import (
    SchedulerConfig,
    assign_priorities,
    assign_tenants,
    flash_crowd_arrivals,
    parse_tenants,
    poisson_arrivals,
    simulate_serving,
)

GOLDEN = Path(__file__).with_name("static_golden.json")
MIX = "model2:0.3+model4:0.7"
TENANTS = "gold:3+silver:1"
STAGE_SERIAL = "packing+stratify+ecp"


def _records(requests) -> list:
    return [
        [r.index, r.start_s, r.finish_s, r.batch_size, r.chip]
        for r in sorted(requests, key=lambda r: r.index)
    ]


def _serving(report) -> dict:
    return {"requests": _records(report.requests), "report": report.to_dict()}


def _cluster(report) -> dict:
    # Fleet runs keep no per-request records and count sheds at the
    # shards' front doors; the empty lists keep the entries' layout.
    return {"requests": [], "shed": [], "report": report.to_dict()}


def _tagged(stream, seed):
    stream = assign_priorities(stream, "0:0.7+1:0.3", seed=seed)
    return assign_tenants(stream, TENANTS, seed=seed)


def _single_chip(max_batch, max_inflight, passes):
    def run():
        stream = poisson_arrivals(30, 2500.0, MIX, seed=1)
        return _serving(simulate_serving(
            stream, SchedulerConfig(max_batch, max_inflight), passes=passes
        ))
    return run


def _tenants_and_priorities():
    stream = _tagged(poisson_arrivals(40, 3000.0, MIX, seed=2), seed=2)
    return _serving(simulate_serving(
        stream, SchedulerConfig(max_batch=4, max_inflight=2),
        tenants=parse_tenants(TENANTS),
    ))


def _admission_stream():
    return _tagged(poisson_arrivals(60, 9000.0, MIX, seed=3), seed=3)


def _run_admission(stream):
    return simulate_cluster_sharded(
        stream,
        homogeneous_fleet(3),
        SchedulerConfig(max_batch=2, max_inflight=1),
        admission=AdmissionConfig(queue_capacity=2),
        tenants=parse_tenants(TENANTS),
    )


def _autoscale_stream():
    return flash_crowd_arrivals(
        160, 1600.0, "model4", seed=4,
        spike_at_s=0.005, spike_duration_s=0.005, spike_factor=8.0,
    )


def _run_autoscale(stream):
    return simulate_cluster_sharded(
        stream,
        homogeneous_fleet(1),
        SchedulerConfig(max_inflight=2),
        autoscale=AutoscaleConfig(
            interval_s=0.005, high_pressure=0.5, low_pressure=0.05,
            max_chips=4,
        ),
    )


# One-shard fleet runs, (stream, run) pairs.  The scenarios were first
# recorded from a single-engine simulator; those records are the oracle
# of tests/cluster/test_single_process_oracle.py.
FLEET_SCENARIOS = {
    "cluster_admission": (_admission_stream, _run_admission),
    "cluster_autoscale": (_autoscale_stream, _run_autoscale),
}


def _fleet(name):
    stream, run = FLEET_SCENARIOS[name]
    return lambda: _cluster(run(stream()))


def _sharded():
    stream = _tagged(poisson_arrivals(120, 30000.0, MIX, seed=5), seed=5)
    return _cluster(simulate_cluster_sharded(
        stream,
        homogeneous_fleet(8),
        SchedulerConfig(max_batch=2, max_inflight=2),
        policy="least_work",
        admission=AdmissionConfig(queue_capacity=3),
        sharding=ShardingConfig(num_shards=4, window_s=0.002, jobs=1),
        tenants=parse_tenants(TENANTS),
    ))


SCENARIOS = {
    "static_1x1_all": _single_chip(1, 1, "all"),
    "static_4x2_all": _single_chip(4, 2, "all"),
    "static_1x1_stage_serial": _single_chip(1, 1, STAGE_SERIAL),
    "static_4x2_stage_serial": _single_chip(4, 2, STAGE_SERIAL),
    "static_tenants_priorities": _tenants_and_priorities,
    "cluster_admission": _fleet("cluster_admission"),
    "cluster_autoscale": _fleet("cluster_autoscale"),
    "sharded_4": _sharded,
}


def capture(name: str) -> dict:
    # A JSON round trip, so tuples compare as the lists the file holds;
    # json writes floats by repr, which round-trips them exactly.
    return json.loads(json.dumps(SCENARIOS[name]()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_static_results_match_golden(golden, name):
    assert capture(name) == golden[name]


def test_scenarios_exercise_what_they_pin(golden):
    """Batching, admission shedding and both autoscaler actions occur."""
    assert max(r[3] for r in golden["static_4x2_all"]["requests"]) > 1
    assert golden["cluster_admission"]["report"]["shed"] > 0
    actions = {
        event["action"]
        for event in golden["cluster_autoscale"]["report"]["autoscaler_events"]
    }
    assert actions == {"add", "drain"}
    sharded = golden["sharded_4"]["report"]
    assert sharded["sharding"]["num_shards"] == 4
    assert sharded["tenants"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: capture(name) for name in sorted(SCENARIOS)},
        separators=(",", ":"), sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
