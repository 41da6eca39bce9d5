"""Multi-chip cluster serving: sharded Bishop fleets on one engine clock.

``fleet``
    Chip kinds (standard / sparse-heavy / dense-heavy), model placement,
    fleet parsing.
``routing``
    Front-end policies: round-robin, least-outstanding-work,
    sparsity-aware affinity.
``admission``
    Bounded per-chip queues and load shedding.
``autoscale``
    Reactive replica scaling from queue-pressure signals.
``simulate``
    :class:`ClusterSimulation`: N chips + router (+ autoscaler) on one
    shared discrete-event engine.
``report``
    Fleet-aggregate and per-chip statistics, reusing the serving layer's
    percentile machinery.

Registered experiments: ``cluster_scaling_curve`` and
``cluster_routing_ablation`` (see ``repro.harness.experiments``);
docs/CLUSTER.md describes the fleet model, routing policies, and
autoscaler semantics.
"""

from .admission import (
    AdmissionConfig,
    ShedRecord,
    TenantAdmission,
    eligible_chips,
)
from .autoscale import AutoscaleConfig, Autoscaler, ScalingEvent
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
    build_cluster_report,
    build_sharded_cluster_report,
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
from .simulate import ClusterSimulation, simulate_cluster

__all__ = [
    "AdmissionConfig",
    "AutoscaleConfig",
    "Autoscaler",
    "CHIP_KINDS",
    "ChipReport",
    "ChipSpec",
    "ClusterReport",
    "ClusterSimulation",
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
    "ShedRecord",
    "SparsityAffinity",
    "TenantAdmission",
    "WindowDigest",
    "WindowStats",
    "build_cluster_report",
    "build_sharded_cluster_report",
    "chip_config",
    "eligible_chips",
    "fleet_capacity_rps",
    "homogeneous_fleet",
    "load_chip_kinds",
    "make_policy",
    "parse_fleet",
    "partition_fleet",
    "register_chip_kind",
    "simulate_cluster",
    "simulate_cluster_sharded",
    "tenant_report",
]
