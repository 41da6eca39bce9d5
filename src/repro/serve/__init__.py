"""Multi-request serving simulation on top of the event engine.

``workload``
    Poisson / bursty arrival streams over Table-2 model mixes.
``profiles``
    Cached per-model engine task graphs (one analytic run per model).
``scheduler`` / ``continuous``
    Dispatch policies and the ready pool: static same-model batching
    (whole-program quantum) and continuous batching (stage quantum).
``simulate``
    The serving loop: arrivals → ready pool → lanes → contended inference.
``report``
    Latency percentiles, throughput, utilization, chip energy.

Registered experiments: ``serve_latency_cdf`` and ``serve_batch_sweep``
(see ``repro.harness.experiments``); docs/ARCHITECTURE.md describes the
event model underneath.
"""

from .continuous import (
    ContinuousBatchScheduler,
    ReadyPool,
    StageEntry,
    stage_serial_s,
)
from .profiles import RequestProfile, profile_config, request_profile
from .report import LatencyStats, ServedRequest, ServingReport, latency_stats
from .scheduler import SCHEDULER_MODES, SchedulerConfig, take_batch
from .simulate import ChipServer, simulate_serving
from .sketch import LatencySketch
from .workload import (
    Request,
    TenantSpec,
    arrival_trace,
    assign_priorities,
    assign_tenants,
    bursty_arrivals,
    diurnal_arrivals,
    dvs_stream_arrivals,
    flash_crowd_arrivals,
    parse_model_mix,
    parse_priority_mix,
    parse_regions,
    parse_tenants,
    poisson_arrivals,
    regional_arrivals,
    spawn_seeds,
)

__all__ = [
    "ChipServer",
    "ContinuousBatchScheduler",
    "LatencySketch",
    "LatencyStats",
    "ReadyPool",
    "Request",
    "RequestProfile",
    "SCHEDULER_MODES",
    "SchedulerConfig",
    "ServedRequest",
    "ServingReport",
    "StageEntry",
    "TenantSpec",
    "arrival_trace",
    "assign_priorities",
    "assign_tenants",
    "bursty_arrivals",
    "diurnal_arrivals",
    "dvs_stream_arrivals",
    "flash_crowd_arrivals",
    "latency_stats",
    "parse_model_mix",
    "parse_priority_mix",
    "parse_regions",
    "parse_tenants",
    "poisson_arrivals",
    "profile_config",
    "regional_arrivals",
    "request_profile",
    "simulate_serving",
    "spawn_seeds",
    "stage_serial_s",
    "take_batch",
]
