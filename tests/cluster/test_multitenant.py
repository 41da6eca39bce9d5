"""Multi-tenant cluster serving: quotas, per-tenant reporting, sharding.

Admission quotas bound each tenant's outstanding requests at the front
door; per-tenant latency sketches and WFQ service accounting flow into
``ClusterReport.tenants``; with several shards the coordinator merges
all three per-tenant dicts (latency / shed / service) across worker
digests, and every window counts its completions per tenant.
"""

import json

import pytest

from repro.cluster import (
    ShardingConfig,
    TenantAdmission,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.serve import (
    Request,
    SchedulerConfig,
    TenantSpec,
    assign_tenants,
    dvs_stream_arrivals,
    parse_tenants,
    poisson_arrivals,
)

MODEL = "model4"
PASSES = "packing+stratify+ecp"


def burst(n, tenant, gap_s=1e-5):
    return [
        Request(index=i, model=MODEL, arrival_s=i * gap_s, tenant=tenant)
        for i in range(n)
    ]


class TestTenantAdmission:
    def test_quota_bounds_outstanding(self):
        admission = TenantAdmission((TenantSpec("acme", quota=2),))
        a, b, c = burst(3, "acme")
        assert admission.admit(a)
        assert admission.admit(b)
        assert not admission.admit(c)  # at quota
        admission.release(a)
        assert admission.admit(c)  # slot freed

    def test_unquotaed_and_untracked_tenants_always_admit(self):
        admission = TenantAdmission((TenantSpec("acme"),))
        for request in burst(10, "acme") + burst(10, "walkin"):
            assert admission.admit(request)

    def test_anonymous_requests_bypass_accounting(self):
        admission = TenantAdmission((TenantSpec("acme", quota=1),))
        for request in burst(5, ""):
            assert admission.admit(request)
        assert admission.outstanding.get("", 0) == 0


class TestOneShard:
    def run(self, stream, tenants, fleet_size=2, **scheduler):
        scheduler.setdefault("mode", "continuous")
        scheduler.setdefault("max_inflight", 2)
        return simulate_cluster_sharded(
            stream,
            homogeneous_fleet(fleet_size),
            SchedulerConfig(**scheduler),
            tenants=tenants,
            passes=PASSES,
        )

    def test_quota_sheds_are_per_tenant(self):
        specs = parse_tenants("tight:1@1+loose:1")
        stream = sorted(
            burst(20, "tight") + burst(20, "loose", gap_s=2e-5),
            key=lambda r: (r.arrival_s, r.index),
        )
        stream = [
            Request(index=i, model=r.model, arrival_s=r.arrival_s,
                    tenant=r.tenant)
            for i, r in enumerate(stream)
        ]
        report = self.run(stream, specs)
        tight = report.tenants["tight"]
        loose = report.tenants["loose"]
        assert tight["shed"] > 0           # quota 1 under a burst
        assert loose["shed"] == 0          # unquotaed tenant untouched
        assert tight["served"] + tight["shed"] == 20
        assert loose["served"] == 20

    def test_tenant_accounting_conserves_requests(self):
        specs = parse_tenants("gold:3@8+silver:1@8")
        stream = assign_tenants(
            poisson_arrivals(120, 4000.0, MODEL, seed=2), specs, seed=2
        )
        offered = {
            name: sum(1 for r in stream if r.tenant == name)
            for name in ("gold", "silver")
        }
        report = self.run(stream, specs)
        for name in ("gold", "silver"):
            block = report.tenants[name]
            assert block["served"] + block["shed"] == offered[name]
        assert report.served + report.shed == len(stream)

    def test_service_shares_sum_to_one(self):
        specs = parse_tenants("a:2+b:1")
        stream = assign_tenants(
            poisson_arrivals(60, 4000.0, MODEL, seed=5), specs, seed=5
        )
        report = self.run(stream, specs)
        total = sum(
            report.tenants[name]["service_share"] for name in ("a", "b")
        )
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_static_scheduler_also_reports_tenants(self):
        specs = parse_tenants("a+b")
        stream = assign_tenants(
            poisson_arrivals(40, 4000.0, MODEL, seed=1), specs, seed=1
        )
        report = self.run(stream, specs, mode="static", max_batch=2)
        assert report.tenants["a"]["served"] + report.tenants["b"][
            "served"
        ] == 40
        assert report.tenants["a"]["service_s"] > 0

    def test_dvs_streams_feed_tenant_blocks(self):
        stream = dvs_stream_arrivals(3, 15, 2000.0, seed=7)
        specs = tuple(TenantSpec(f"cam{i}") for i in range(3))
        report = self.run(stream, specs)
        for i in range(3):
            assert report.tenants[f"cam{i}"]["served"] == 15

    def test_json_payload_strict_and_complete(self):
        specs = parse_tenants("a:2@16+idle:1")
        stream = assign_tenants(
            poisson_arrivals(30, 4000.0, MODEL, seed=3), (specs[0],), seed=3
        )
        report = self.run(stream, specs)
        payload = json.loads(
            json.dumps(report.to_dict(), allow_nan=False)
        )
        assert set(payload["tenants"]) == {"a", "idle"}
        assert payload["tenants"]["idle"]["served"] == 0
        assert payload["tenants"]["a"]["quota"] == 16
        # per-tenant window counts stay in memory, out of the payload
        for window in payload["sharding"]["windows"]:
            assert "tenant_served" not in window

    def test_window_tenant_counts_sum_to_tenant_served(self):
        specs = parse_tenants("gold:3@8+silver:1@8")
        stream = assign_tenants(
            poisson_arrivals(120, 4000.0, MODEL, seed=2), specs, seed=2
        )
        report = simulate_cluster_sharded(
            stream,
            homogeneous_fleet(2),
            SchedulerConfig(mode="continuous", max_inflight=2),
            sharding=ShardingConfig(window_s=2e-3),
            tenants=specs,
            passes=PASSES,
        )
        assert len(report.windows) > 1
        for name in ("gold", "silver"):
            assert sum(
                w.tenant_served.get(name, 0) for w in report.windows
            ) == report.tenants[name]["served"]
        for window in report.windows:
            assert sum(window.tenant_served.values()) == window.served


class TestSharded:
    def run(self, stream, tenants, shards=2, fleet_size=4, jobs=1):
        return simulate_cluster_sharded(
            stream,
            homogeneous_fleet(fleet_size),
            SchedulerConfig(mode="continuous", max_inflight=2),
            sharding=ShardingConfig(
                num_shards=shards, window_s=1e-3, jobs=jobs
            ),
            tenants=tenants,
            passes=PASSES,
        )

    def test_deterministic_across_jobs(self):
        specs = parse_tenants("gold:3+silver:1")
        stream = assign_tenants(
            poisson_arrivals(80, 8000.0, MODEL, seed=4), specs, seed=4
        )
        reports = [
            self.run(stream, specs, jobs=jobs) for jobs in (1, 2)
        ]
        a, b = (r.to_dict()["tenants"] for r in reports)
        assert a == b
        assert [w.tenant_served for w in reports[0].windows] == [
            w.tenant_served for w in reports[1].windows
        ]

    def test_merged_tenant_counts_conserve_offered(self):
        specs = parse_tenants("gold:3@16+silver:1@16")
        stream = assign_tenants(
            poisson_arrivals(100, 8000.0, MODEL, seed=6), specs, seed=6
        )
        offered = {
            name: sum(1 for r in stream if r.tenant == name)
            for name in ("gold", "silver")
        }
        report = self.run(stream, specs)
        for name in ("gold", "silver"):
            block = report.tenants[name]
            assert block["served"] + block["shed"] == offered[name]

    def test_idle_declared_tenant_survives_the_merge(self):
        specs = parse_tenants("busy+idle")
        stream = assign_tenants(
            poisson_arrivals(40, 8000.0, MODEL, seed=8), (specs[0],), seed=8
        )
        report = self.run(stream, specs)
        block = report.tenants["idle"]
        assert block["served"] == 0
        assert block["latency_ms"]["p99"] == 0.0
        assert report.tenant_sketches["idle"].count == 0

    def test_matches_one_shard_tenant_totals(self):
        """Sharding changes routing, not accounting: served + shed per
        tenant is conserved in both topologies."""
        specs = parse_tenants("a+b")
        stream = assign_tenants(
            poisson_arrivals(60, 8000.0, MODEL, seed=9), specs, seed=9
        )
        sharded = self.run(stream, specs, shards=2, fleet_size=4)
        single = self.run(stream, specs, shards=1, fleet_size=4)
        for name in ("a", "b"):
            assert (
                sharded.tenants[name]["served"] + sharded.tenants[name]["shed"]
                == single.tenants[name]["served"]
                + single.tenants[name]["shed"]
            )
