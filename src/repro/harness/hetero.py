"""Sec.-6.4 ablations: heterogeneity and the dedicated attention core.

* **Heterogeneity**: Model 3 with the stratifier on (dense ∥ sparse cores)
  vs everything forced onto the dense core.  The paper reports dense-core
  1.16 ms / 0.29 mJ plus sparse-core 0.53 ms / 0.038 mJ in parallel, vs
  1.83 ms / 0.45 mJ dense-only — a 1.39× speedup and 1.57× energy saving.
* **Attention core**: Bishop's attention core vs PTB on the SSA layers only,
  both without BSA/ECP (paper: 10.7-23.3× latency, 1.39-1.96× energy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..arch import BishopAccelerator, BishopConfig
from ..baselines import PTBAccelerator
from ..bundles import BundleSpec
from ..compiler import PassConfig
from ..model import model_config
from .synthetic import PROFILES, synthetic_trace

__all__ = [
    "HeterogeneityResult",
    "heterogeneity_ablation",
    "AttentionCoreComparison",
    "attention_core_comparison",
]


@dataclass(frozen=True)
class HeterogeneityResult:
    model: str
    hetero_latency_s: float
    hetero_energy_mj: float
    dense_only_latency_s: float
    dense_only_energy_mj: float
    mean_dense_fraction: float      # share of features routed dense

    @property
    def speedup(self) -> float:
        return self.dense_only_latency_s / self.hetero_latency_s

    @property
    def energy_gain(self) -> float:
        return self.dense_only_energy_mj / self.hetero_energy_mj


@lru_cache(maxsize=8)
def heterogeneity_ablation(
    model: str = "model3", bs_t: int = 2, bs_n: int = 4, seed: int = 0
) -> HeterogeneityResult:
    """Stratified heterogeneous cores vs dense-core-only processing."""
    spec = BundleSpec(bs_t, bs_n)
    trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=seed)

    accelerator = BishopAccelerator(BishopConfig(bundle_spec=spec))
    hetero = accelerator.run_trace(trace)
    dense_only = accelerator.run_trace(
        trace, passes=PassConfig().without("stratify")
    )

    matmuls = [l for l in hetero.layers if l.phase != "ATN"]
    mean_dense_fraction = sum(
        l.notes.get("dense_fraction", 1.0) for l in matmuls
    ) / len(matmuls)

    def matmul_totals(report):
        layers = [l for l in report.layers if l.phase != "ATN"]
        return (
            sum(l.latency_s for l in layers),
            sum(l.energy_pj for l in layers) * 1e-9,
        )

    h_lat, h_energy = matmul_totals(hetero)
    d_lat, d_energy = matmul_totals(dense_only)
    return HeterogeneityResult(
        model=model,
        hetero_latency_s=h_lat,
        hetero_energy_mj=h_energy,
        dense_only_latency_s=d_lat,
        dense_only_energy_mj=d_energy,
        mean_dense_fraction=mean_dense_fraction,
    )


@dataclass(frozen=True)
class AttentionCoreComparison:
    model: str
    bishop_latency_s: float
    bishop_energy_mj: float
    ptb_latency_s: float
    ptb_energy_mj: float

    @property
    def latency_gain(self) -> float:
        return self.ptb_latency_s / self.bishop_latency_s

    @property
    def energy_gain(self) -> float:
        return self.ptb_energy_mj / self.bishop_energy_mj


@lru_cache(maxsize=8)
def attention_core_comparison(
    model: str, bs_t: int = 2, bs_n: int = 4, seed: int = 0
) -> AttentionCoreComparison:
    """SSA layers only, architecture only (no BSA, no ECP)."""
    spec = BundleSpec(bs_t, bs_n)
    trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=seed)
    bishop = BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(trace)
    ptb = PTBAccelerator().run_trace(trace)
    return AttentionCoreComparison(
        model=model,
        bishop_latency_s=bishop.attention_latency_s(),
        bishop_energy_mj=bishop.attention_energy_pj() * 1e-9,
        ptb_latency_s=ptb.attention_latency_s(),
        ptb_energy_mj=ptb.attention_energy_pj() * 1e-9,
    )
