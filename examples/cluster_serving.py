"""Serving a request stream on a fleet of Bishop chips — the cluster layer.

Walks the three cluster stories on one Poisson workload:

1. **Scaling** — the same saturating stream on 1/2/4-chip homogeneous
   fleets (throughput scales, tails collapse);
2. **Routing** — a mixed-sparsity mix on a dense-heavy + sparse-heavy
   fleet under round-robin vs least-work vs sparsity-aware affinity;
3. **Elasticity** — admission control shedding under overload, then the
   autoscaler growing the fleet instead.

Run:  PYTHONPATH=src python examples/cluster_serving.py [--requests N]
"""

import argparse

from repro.cluster import (
    AdmissionConfig,
    AutoscaleConfig,
    fleet_capacity_rps,
    homogeneous_fleet,
    parse_fleet,
    simulate_cluster_sharded,
)
from repro.serve import (
    SchedulerConfig,
    parse_model_mix,
    poisson_arrivals,
    request_profile,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    scheduler = SchedulerConfig(max_inflight=2)

    # -- 1. scaling ---------------------------------------------------------
    model = "model4"
    capacity = 1.0 / request_profile(model).single_latency_s
    saturating = poisson_arrivals(args.requests, 5.0 * capacity, model, args.seed)
    print(f"scaling: {model} at 5x one chip's capacity ({capacity:,.0f} rps)")
    print(f"{'chips':>6} {'thr rps':>9} {'p50 ms':>8} {'p99 ms':>8}")
    base = None
    for size in (1, 2, 4):
        report = simulate_cluster_sharded(
            saturating, homogeneous_fleet(size), scheduler, seed=args.seed
        )
        base = base or report.throughput_rps
        p = report.latency_percentiles_ms
        print(
            f"{size:>6} {report.throughput_rps:>9,.0f} {p['p50']:>8.2f}"
            f" {p['p99']:>8.2f}   (x{report.throughput_rps / base:.2f})"
        )

    # -- 2. routing on a heterogeneous fleet --------------------------------
    mix = parse_model_mix("model2:0.5+model4:0.5")
    fleet = parse_fleet("dense_heavy:2+sparse_heavy:2")
    rate = 0.85 * fleet_capacity_rps(fleet, mix, seed=args.seed)
    stream = poisson_arrivals(args.requests, rate, mix, args.seed)
    print("\nrouting: model2+model4 on dense_heavy:2+sparse_heavy:2 (rho 0.85)")
    print(f"{'policy':>12} {'p50 ms':>8} {'p99 ms':>8} {'thr rps':>9}")
    for policy in ("round_robin", "least_work", "sparsity"):
        report = simulate_cluster_sharded(
            stream, fleet, scheduler, policy=policy, seed=args.seed
        )
        p = report.latency_percentiles_ms
        print(
            f"{policy:>12} {p['p50']:>8.3f} {p['p99']:>8.3f}"
            f" {report.throughput_rps:>9,.0f}"
        )

    # -- 3. elasticity: shed vs scale ---------------------------------------
    overload = poisson_arrivals(args.requests, 3.0 * capacity, model, args.seed)
    shed = simulate_cluster_sharded(
        overload,
        homogeneous_fleet(1),
        scheduler,
        admission=AdmissionConfig(queue_capacity=8),
        seed=args.seed,
    )
    autoscale = AutoscaleConfig(
        interval_s=20 * request_profile(model).single_latency_s, max_chips=4
    )
    scaled = simulate_cluster_sharded(
        overload,
        homogeneous_fleet(1),
        scheduler,
        autoscale=autoscale,
        seed=args.seed,
    )
    print(f"\nelasticity at 3x overload ({args.requests} requests):")
    print(
        f"  bounded queue (8):  served {shed.served}, shed {shed.shed},"
        f" p99 {shed.latency_percentiles_ms['p99']:.2f} ms"
    )
    grown = len(scaled.chips)
    print(
        f"  autoscaler (max 4): served {scaled.served}, shed {scaled.shed},"
        f" p99 {scaled.latency_percentiles_ms['p99']:.2f} ms"
        f" on {grown} chips"
    )
    for event in scaled.scaling_events:
        print(
            f"    t={event.t_s * 1e3:7.2f} ms {event.action:<5} {event.chip}"
            f" (pressure {event.pressure:.2f})"
        )


if __name__ == "__main__":
    main()
