"""Fig. 14 — ECP threshold sweep: accuracy vs SSA energy-efficiency/speedup.

Two coupled sweeps:

* **Hardware**: for each pruning threshold θ_p, run the Table-2-scale
  attention layers through the attention core and report the speedup and
  energy-efficiency of the spiking self-attention layers relative to θ_p=0
  (activity skipping only).
* **Accuracy**: attach ECP at each θ_p to a *trained tiny model* and measure
  test accuracy — reproducing the plateau-then-drop shape (with the
  occasional small improvement the paper attributes to denoising).

The two axes use different absolute θ ranges because the bound statistic
``n_ab`` scales with the feature count D; the paper's thresholds (6-10)
apply to D=128-384 models, the tiny models use proportionally smaller θ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..algo import ECPConfig, attach_ecp, detach_ecp
from ..arch import (
    BishopConfig,
    EnergyModel,
    merge_attention_heads,
    simulate_attention_core,
)
from ..bundles import BundleSpec, TTBGrid
from ..model import SpikingTransformer, model_config, tiny_config
from ..train import TrainConfig, Trainer, make_image_dataset
from .synthetic import PROFILES, synthetic_trace

__all__ = [
    "HardwareSweepPoint",
    "ecp_hardware_sweep",
    "AccuracySweepPoint",
    "ecp_accuracy_sweep",
]


@dataclass(frozen=True)
class HardwareSweepPoint:
    theta: float
    q_keep_fraction: float
    k_keep_fraction: float
    attention_latency_s: float
    attention_energy_mj: float
    speedup: float          # vs theta=0 (no ECP)
    energy_efficiency: float


@lru_cache(maxsize=64)
def ecp_hardware_sweep(
    model: str,
    thetas: tuple[float, ...] = (0, 2, 4, 6, 8, 10, 12, 16),
    bsa: bool = True,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
) -> tuple[HardwareSweepPoint, ...]:
    """Sweep θ_p over the SSA layers of one Table-2 model."""
    spec = BundleSpec(bs_t, bs_n)
    config = model_config(model)
    profile = PROFILES[model]
    if bsa:
        profile = profile.bsa_variant()
    trace = synthetic_trace(config, profile, spec, seed=seed)
    arch = BishopConfig(bundle_spec=spec)
    energy_model = EnergyModel()
    # One merged-head Q/K/V grid per layer, shared by every θ_p.
    qkv_grids = [
        tuple(TTBGrid(merge_attention_heads(x), spec) for x in (r.q, r.k, r.v))
        for r in trace.layers(kind="attention")
    ]

    def run(theta: float):
        # Attention-core accounting only (the paper's Fig. 14 measures the
        # spiking self-attention layers, not the downstream spike generator).
        ecp = ECPConfig(theta, theta, spec) if theta > 0 else None
        results = [
            simulate_attention_core(*grids, arch, ecp=ecp) for grids in qkv_grids
        ]
        latency = sum(r.cycles for r in results) / arch.clock_hz
        energy = sum(
            r.compute_energy_pj(energy_model) + r.traffic.energy_pj(energy_model)
            for r in results
        ) * 1e-9
        q_keep = float(np.mean([r.q_keep_fraction for r in results]))
        k_keep = float(np.mean([r.k_keep_fraction for r in results]))
        return latency, energy, q_keep, k_keep

    base_latency, base_energy, _, _ = run(0.0)
    points = []
    for theta in thetas:
        latency, energy, q_keep, k_keep = run(float(theta))
        points.append(
            HardwareSweepPoint(
                theta=float(theta),
                q_keep_fraction=q_keep,
                k_keep_fraction=k_keep,
                attention_latency_s=latency,
                attention_energy_mj=energy,
                speedup=base_latency / latency,
                energy_efficiency=base_energy / energy,
            )
        )
    return tuple(points)


@dataclass(frozen=True)
class AccuracySweepPoint:
    theta: float
    accuracy: float
    q_keep_fraction: float
    k_keep_fraction: float


@lru_cache(maxsize=8)
def _trained_tiny_model(seed: int = 0, epochs: int = 12):
    """Train (once, cached) a tiny spiking transformer for the accuracy axis."""
    dataset = make_image_dataset(num_classes=4, samples_per_class=30, image_size=16, seed=seed)
    model = SpikingTransformer(tiny_config(num_classes=4), seed=seed)
    trainer = Trainer(
        model, dataset, TrainConfig(epochs=epochs, batch_size=24, lr=3e-3, seed=seed)
    )
    trainer.fit()
    return model, dataset, trainer


def ecp_accuracy_sweep(
    thetas: tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8),
    bs_t: int = 2,
    bs_n: int = 2,
    seed: int = 0,
) -> tuple[AccuracySweepPoint, ...]:
    """Accuracy of a trained tiny model under inference-time ECP."""
    model, dataset, trainer = _trained_tiny_model(seed=seed)
    spec = BundleSpec(bs_t, bs_n)
    points = []
    for theta in thetas:
        if theta > 0:
            pruners = attach_ecp(model, ECPConfig(theta, theta, spec))
        else:
            pruners = []
            detach_ecp(model)
        accuracy = trainer.evaluate(dataset.x_test, dataset.y_test)
        if pruners and pruners[0].last_reports:
            q_keep = float(np.mean(
                [r.q_token_keep_fraction for p in pruners for r in p.last_reports]
            ))
            k_keep = float(np.mean(
                [r.k_token_keep_fraction for p in pruners for r in p.last_reports]
            ))
        else:
            q_keep = k_keep = 1.0
        points.append(
            AccuracySweepPoint(
                theta=float(theta), accuracy=accuracy,
                q_keep_fraction=q_keep, k_keep_fraction=k_keep,
            )
        )
    detach_ecp(model)
    return tuple(points)
