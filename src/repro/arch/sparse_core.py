"""TT-Bundle Sparse Core — SIGMA-like engine for irregular bundles (Sec. 5.4).

The sparse core processes the stratified low-density partition ``X_S·W_S``.
Following SIGMA [38], a flexible distribution network assigns *only active*
(bundle, feature) pairs to the ``sparse_units`` parallel TTB units, and a
configurable reduction network merges partial sums — so unlike the lockstep
systolic dense core, fully irregular sparsity converts 1:1 into saved time
(at the price of network overhead and per-pair weight gathers).

Model, per active pair (bundle b, input feature d):
* the unit fetches the weight row ``W[d, :]`` once (intra-bundle reuse: one
  fetch serves the bundle's whole ``BS_t × BS_n`` payload, matching the
  paper's "multi-bit weight data reuse when processing different tokens and
  time points within a bundle");
* it accumulates the bundle payload into ``O`` output partial sums,
  ``⌈volume/spikes_per_cycle⌉`` cycles per output feature.

Cycles = ``⌈active_pairs / units⌉ × O × ⌈volume/lanes⌉ × overhead``.

The model reads integer statistics, not spikes: the active-pair count is
the sum of the layer's per-feature active-bundle counts over ``R_S``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import BishopConfig
from .dense_core import psum_chunking
from .energy import EnergyModel
from .memory import TrafficLedger, bundle_storage_bytes

__all__ = ["SparseCoreResult", "simulate_sparse_core", "sparse_core_cycles"]


@dataclass(frozen=True)
class SparseCoreResult:
    """Cycle/op/traffic outcome of one layer's sparse partition."""

    cycles: float
    sparse_ops: float
    active_pairs: float
    utilization: float
    traffic: TrafficLedger
    waves: int = 0     # distribution-network waves — the engine's acquire grain

    def time_s(self, config: BishopConfig) -> float:
        return self.cycles / config.clock_hz

    def compute_energy_pj(self, energy: EnergyModel) -> float:
        return energy.compute_pj("sparse", self.sparse_ops)


def _waves(active_pairs: float, config: BishopConfig) -> float:
    """Distribution-network waves: active pairs spread over the TTB units."""
    return -(-float(active_pairs) // config.sparse_units)


def sparse_core_cycles(
    active_pairs: float, out_features: int, config: BishopConfig
) -> float:
    """Sparse-core cycles from the partition's active (bundle, feature) pair
    count: ``⌈active_pairs / units⌉ × O × volume cycles × overhead``."""
    if out_features == 0 or active_pairs == 0:
        return 0.0
    # TTB units hold one psum per bundle slot; oversized bundles split into
    # chunks (same register budget as the dense core's PEs).
    _, volume_cycles = psum_chunking(config)
    return (
        _waves(active_pairs, config) * out_features * volume_cycles
        * config.sparse_overhead
    )


def simulate_sparse_core(
    active_pairs: int,
    num_features: int,
    num_bundles: int,
    out_features: int,
    config: BishopConfig,
) -> SparseCoreResult:
    """Simulate the sparse core on one ``(T, N, D_sparse)`` partition.

    The partition is given by its statistics: ``active_pairs`` active
    (bundle, feature) pairs over its ``num_features`` features and
    ``num_bundles`` bundle rows (time × token bundle slots).
    """
    traffic = TrafficLedger()
    if num_features == 0 or out_features == 0 or num_bundles == 0:
        return SparseCoreResult(0.0, 0.0, 0.0, 0.0, traffic)

    spec = config.bundle_spec
    active_pairs = float(active_pairs)
    if active_pairs == 0:
        return SparseCoreResult(0.0, 0.0, 0.0, 0.0, traffic)

    chunks, _ = psum_chunking(config)
    waves = _waves(active_pairs, config)
    cycles = sparse_core_cycles(active_pairs, out_features, config)

    sparse_ops = active_pairs * spec.volume * out_features
    peak = cycles * config.sparse_throughput
    utilization = float(sparse_ops / peak) if peak else 0.0

    # Per-pair weight-row gather (intra-bundle reuse only; irregular patterns
    # defeat inter-bundle reuse — the reason dense features go elsewhere).
    # Chunked bundles re-gather their rows once per chunk.
    weight_bytes = active_pairs * chunks * out_features * config.weight_bits / 8.0
    traffic.add("glb", "weight", weight_bytes)
    act_bytes = bundle_storage_bytes(
        active_pairs, spec.volume, num_bundles * num_features
    )
    traffic.add("glb", "activation", act_bytes)
    psum_bytes = (
        num_bundles * spec.volume * out_features
        * config.accumulator_bits / 8.0
    )
    traffic.add("spad", "output", psum_bytes)

    return SparseCoreResult(
        cycles=cycles,
        sparse_ops=sparse_ops,
        active_pairs=active_pairs,
        utilization=utilization,
        traffic=traffic,
        waves=int(waves),
    )
