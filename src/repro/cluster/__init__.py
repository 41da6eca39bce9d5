"""Multi-chip cluster serving: Bishop fleets in shards stepped in windows.

``fleet``
    Chip kinds (standard / sparse-heavy / dense-heavy), model placement,
    fleet parsing.
``routing``
    Front-end policies: round-robin, least-outstanding-work,
    sparsity-aware affinity.
``admission``
    Bounded per-chip queues and load shedding.
``autoscale``
    Replica-scaling parameters and the scaling-event record.
``sharding``
    :func:`simulate_cluster_sharded`, the fleet simulator: chips dealt to
    K shards (default one), each a private discrete-event engine with
    its own router, stepped in coordination windows that drive
    cross-shard routing, the autoscaler and streaming SLO monitoring.
``report``
    Fleet-aggregate and per-chip statistics, reusing the serving layer's
    percentile machinery.

Registered experiments: ``cluster_scaling_curve``,
``cluster_routing_ablation``, ``cluster_multitenant_fairness`` and
``cluster_planet_scale`` (see ``repro.harness.experiments``);
docs/CLUSTER.md describes the fleet model, routing policies, and
autoscaler semantics.
"""

from .admission import AdmissionConfig, TenantAdmission, eligible_chips
from .autoscale import AutoscaleConfig, ScalingEvent
from .fleet import (
    CHIP_KINDS,
    ChipSpec,
    FleetSpec,
    chip_config,
    fleet_capacity_rps,
    homogeneous_fleet,
    load_chip_kinds,
    parse_fleet,
    register_chip_kind,
)
from .report import (
    ChipReport,
    ClusterReport,
    ShardChipStats,
    WindowStats,
    tenant_report,
)
from .routing import (
    POLICIES,
    LeastOutstanding,
    RoundRobin,
    RoutingPolicy,
    SparsityAffinity,
    make_policy,
)
from .sharding import (
    SHARD_POLICIES,
    ShardInit,
    ShardState,
    ShardingConfig,
    WindowDigest,
    auto_window_s,
    partition_fleet,
    simulate_cluster_sharded,
)

__all__ = [
    "AdmissionConfig",
    "AutoscaleConfig",
    "CHIP_KINDS",
    "ChipReport",
    "ChipSpec",
    "ClusterReport",
    "FleetSpec",
    "LeastOutstanding",
    "POLICIES",
    "RoundRobin",
    "RoutingPolicy",
    "SHARD_POLICIES",
    "ScalingEvent",
    "ShardChipStats",
    "ShardInit",
    "ShardState",
    "ShardingConfig",
    "SparsityAffinity",
    "TenantAdmission",
    "WindowDigest",
    "WindowStats",
    "auto_window_s",
    "chip_config",
    "eligible_chips",
    "fleet_capacity_rps",
    "homogeneous_fleet",
    "load_chip_kinds",
    "make_policy",
    "parse_fleet",
    "partition_fleet",
    "register_chip_kind",
    "simulate_cluster_sharded",
    "tenant_report",
]
