"""Fleet reports pinned to recorded payloads, compared with ``==``.

``report_golden.json`` holds ``ClusterReport.to_dict()`` for a matrix
of fleet runs that together reach every branch of the coordinator's
window loop: one and four shards, both shard policies, an autoscaler
that adds and drains chips, a queue bound
that sheds, the streaming SLO monitor with the alert detectors on,
tenants with an admission quota, and the empty stream.  Any change to
routing, window batching, digest merging, monitor feeding or report
assembly shows up as an exact mismatch — there is no tolerance.

Regenerate only for a change meant to alter fleet results::

    PYTHONPATH=src python tests/cluster/test_report_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.cluster import (
    AdmissionConfig,
    AutoscaleConfig,
    ChipSpec,
    FleetSpec,
    ShardingConfig,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.serve import (
    SchedulerConfig,
    assign_tenants,
    flash_crowd_arrivals,
    parse_tenants,
    poisson_arrivals,
)

GOLDEN = Path(__file__).with_name("report_golden.json")
MIX = "model2:0.4+model4:0.6"
# Mean single-request latency of MIX on a standard chip (~0.6 ms).
LATENCY_S = 6e-4


def _flash(count, seed, chips):
    return flash_crowd_arrivals(
        count, 0.15 * chips / LATENCY_S, MIX, seed=seed,
        spike_at_s=0.01, spike_duration_s=0.015, spike_factor=8.0,
    )


def _autoscale(max_chips):
    return AutoscaleConfig(
        interval_s=20 * LATENCY_S, high_pressure=0.5, low_pressure=0.05,
        max_chips=max_chips,
    )


def _k1_round_robin_slo_alerts():
    return simulate_cluster_sharded(
        _flash(200, seed=1, chips=3),
        homogeneous_fleet(3),
        SchedulerConfig(max_batch=2, max_inflight=2),
        policy="round_robin",
        sharding=ShardingConfig(num_shards=1, window_s=0.004),
        slo_ms=4.0,
        alerts=True,
    )


def _k4_round_robin():
    return simulate_cluster_sharded(
        poisson_arrivals(160, 0.6 * 8 / LATENCY_S, MIX, seed=2),
        homogeneous_fleet(8),
        SchedulerConfig(max_batch=2, max_inflight=2),
        policy="round_robin",
        sharding=ShardingConfig(
            num_shards=4, window_s=0.002, shard_policy="round_robin"
        ),
    )


def _k4_least_backlog_bounded_slo_alerts():
    # Placement-restricted chips and two-deep queues: shards drop
    # models from ``hosted`` when full, and the front doors shed.
    fleet = FleetSpec((
        ChipSpec(models=("model2",)),
        ChipSpec(models=("model4",)),
        ChipSpec(),
        ChipSpec(models=("model4",)),
        ChipSpec(models=("model2", "model4")),
        ChipSpec(),
        ChipSpec(models=("model4",)),
        ChipSpec(models=("model2",)),
    ))
    return simulate_cluster_sharded(
        _flash(300, seed=3, chips=8),
        fleet,
        SchedulerConfig(max_batch=2, max_inflight=1),
        policy="least_work",
        admission=AdmissionConfig(queue_capacity=2),
        sharding=ShardingConfig(
            num_shards=4, window_s=0.003, shard_policy="least_backlog"
        ),
        slo_ms=3.0,
        alerts=True,
    )


def _k1_autoscale():
    return simulate_cluster_sharded(
        _flash(300, seed=4, chips=2),
        homogeneous_fleet(2),
        SchedulerConfig(max_batch=2, max_inflight=2, mode="continuous"),
        autoscale=_autoscale(max_chips=6),
        sharding=ShardingConfig(num_shards=1, window_s=0.01),
    )


def _k4_autoscale():
    # One chip per shard: only a shard that holds an added replica has
    # a chip to drain, so every drain goes there.
    return simulate_cluster_sharded(
        _flash(600, seed=5, chips=8),
        homogeneous_fleet(4),
        SchedulerConfig(max_batch=2, max_inflight=2),
        autoscale=_autoscale(max_chips=10),
        sharding=ShardingConfig(
            num_shards=4, window_s=0.004, shard_policy="least_backlog"
        ),
        slo_ms=5.0,
    )


def _k4_tenants_quota():
    tenants = parse_tenants("gold:3@4+silver:1@2+bronze:1")
    stream = assign_tenants(
        poisson_arrivals(200, 1.2 * 8 / LATENCY_S, MIX, seed=6),
        "gold:3+silver:1+bronze:1", seed=6,
    )
    return simulate_cluster_sharded(
        stream,
        homogeneous_fleet(8),
        SchedulerConfig(max_batch=2, max_inflight=2, mode="continuous"),
        sharding=ShardingConfig(
            num_shards=4, window_s=0.002, shard_policy="least_backlog"
        ),
        tenants=tenants,
    )


def _k1_tenants_quota():
    tenants = parse_tenants("gold:2@3+silver:1@1")
    stream = assign_tenants(
        poisson_arrivals(120, 1.5 * 2 / LATENCY_S, MIX, seed=7),
        "gold:2+silver:1", seed=7,
    )
    return simulate_cluster_sharded(
        stream,
        homogeneous_fleet(2),
        SchedulerConfig(max_batch=2, max_inflight=2),
        admission=AdmissionConfig(queue_capacity=3),
        tenants=tenants,
    )


def _empty():
    return simulate_cluster_sharded(
        [], homogeneous_fleet(4),
        sharding=ShardingConfig(num_shards=4, window_s=0.01),
        slo_ms=1.0, alerts=True,
    )


SCENARIOS = {
    "k1_round_robin_slo_alerts": _k1_round_robin_slo_alerts,
    "k4_round_robin": _k4_round_robin,
    "k4_least_backlog_bounded_slo_alerts": _k4_least_backlog_bounded_slo_alerts,
    "k1_autoscale": _k1_autoscale,
    "k4_autoscale": _k4_autoscale,
    "k4_tenants_quota": _k4_tenants_quota,
    "k1_tenants_quota": _k1_tenants_quota,
    "empty": _empty,
}


def payload(name: str) -> dict:
    """The scenario's report as it reads back from JSON."""
    return json.loads(json.dumps(SCENARIOS[name]().to_dict()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_equals_golden(golden, name):
    assert payload(name) == golden[name]


def test_scenarios_reach_what_they_pin(golden):
    """The recorded payloads exercise the branches the matrix names."""
    def actions(name):
        return [e["action"] for e in golden[name]["autoscaler_events"]]

    for name in ("k1_autoscale", "k4_autoscale"):
        assert {"add", "drain"} <= set(actions(name)), name
    assert golden["k4_round_robin"]["sharding"]["num_shards"] == 4
    assert golden["k1_round_robin_slo_alerts"]["sharding"]["num_shards"] == 1
    for name in (
        "k1_round_robin_slo_alerts", "k4_least_backlog_bounded_slo_alerts"
    ):
        assert golden[name]["alerts"], name
        assert all("pressure" in w for w in golden[name]["sharding"]["windows"])
    assert golden["k4_least_backlog_bounded_slo_alerts"]["shed"] > 0
    for name in ("k4_tenants_quota", "k1_tenants_quota"):
        blocks = golden[name]["tenants"]
        assert any(block["quota"] is not None for block in blocks.values())
        assert sum(block["shed"] for block in blocks.values()) > 0, name
    assert golden["empty"]["num_requests"] == 0


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: payload(name) for name in sorted(SCENARIOS)},
                   indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
