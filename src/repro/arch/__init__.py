"""The Bishop accelerator simulator (systems S9-S16)."""

from .accelerator import BishopAccelerator
from .analysis import (
    EnergyDecomposition,
    LayerBoundedness,
    boundedness_profile,
    energy_decomposition,
    speedup_table,
    utilization_summary,
)
from .engine import (
    BishopMachine,
    Engine,
    EngineRun,
    LayerTiming,
    TimelineEntry,
)
from .sram import SRAMEstimate, estimate_sram, glb_configuration_estimate
from .attention_core import (
    AttentionCoreResult,
    merge_attention_heads,
    simulate_attention_core,
)
from .config import BishopConfig, DRAMConfig, PTBConfig, resolve_overrides
from .dense_core import DenseCoreResult, simulate_dense_core
from .energy import (
    AreaPowerBreakdown,
    BISHOP_BREAKDOWN,
    EnergyModel,
    PTB_BREAKDOWN,
)
from .memory import TrafficLedger, bundle_storage_bytes, spike_payload_bytes
from .report import EnergyBreakdown, InferenceReport, LayerReport
from .sparse_core import SparseCoreResult, simulate_sparse_core
from .spike_generator import SpikeGeneratorResult, simulate_spike_generator
from .stratifier import (
    StratifiedWorkload,
    balanced_theta,
    stratify,
    theta_for_dense_fraction,
)

__all__ = [
    "BishopAccelerator",
    "BishopConfig",
    "PTBConfig",
    "DRAMConfig",
    "resolve_overrides",
    "EnergyModel",
    "AreaPowerBreakdown",
    "BISHOP_BREAKDOWN",
    "PTB_BREAKDOWN",
    "TrafficLedger",
    "bundle_storage_bytes",
    "spike_payload_bytes",
    "EnergyBreakdown",
    "InferenceReport",
    "LayerReport",
    "StratifiedWorkload",
    "stratify",
    "balanced_theta",
    "theta_for_dense_fraction",
    "DenseCoreResult",
    "simulate_dense_core",
    "SparseCoreResult",
    "simulate_sparse_core",
    "AttentionCoreResult",
    "simulate_attention_core",
    "merge_attention_heads",
    "SpikeGeneratorResult",
    "simulate_spike_generator",
    "SRAMEstimate",
    "estimate_sram",
    "glb_configuration_estimate",
    "BishopMachine",
    "Engine",
    "EngineRun",
    "LayerTiming",
    "TimelineEntry",
    "LayerBoundedness",
    "boundedness_profile",
    "EnergyDecomposition",
    "energy_decomposition",
    "utilization_summary",
    "speedup_table",
]
