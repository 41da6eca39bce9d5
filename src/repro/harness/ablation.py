"""Architecture ablations: what each Bishop mechanism contributes.

DESIGN.md calls out the design choices behind Bishop; this harness isolates
them by toggling compiler passes (and the bundle shape) on the same
workload:

* ``full``            — stratifier + TTB skipping + balanced θ_s (default);
* ``no_stratifier``   — everything on the dense core (Sec. 6.4's ablation);
* ``no_skip``         — inactive bundles processed like active ones;
* ``no_skip_no_strat``— both off: a PTB-like homogeneous dense design with
  bundling only;
* ``tiny_bundles``    — (1,1) bundles: spike-level granularity (the
  conventional approach of Fig. 4a, no intra-bundle reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..arch import BishopAccelerator, BishopConfig
from ..bundles import BundleSpec
from ..compiler import PassConfig
from ..model import model_config
from .synthetic import PROFILES, synthetic_trace

__all__ = ["AblationPoint", "architecture_ablation", "ABLATION_VARIANTS"]

ABLATION_VARIANTS = (
    "full", "no_stratifier", "no_skip", "no_skip_no_strat", "tiny_bundles",
)


@dataclass(frozen=True)
class AblationPoint:
    variant: str
    latency_s: float
    energy_mj: float

    @property
    def edp(self) -> float:
        return self.latency_s * self.energy_mj


def _setup_for(variant: str, spec: BundleSpec) -> tuple[BishopConfig, PassConfig]:
    """The chip and compiler passes one variant runs with."""
    passes = PassConfig()
    if variant == "tiny_bundles":
        return BishopConfig(bundle_spec=BundleSpec(1, 1)), passes
    if variant == "no_stratifier":
        passes = passes.without("stratify")
    elif variant == "no_skip":
        passes = passes.without("packing")
    elif variant == "no_skip_no_strat":
        passes = passes.without("stratify").without("packing")
    elif variant != "full":
        raise ValueError(
            f"unknown variant {variant!r}; options: {ABLATION_VARIANTS}"
        )
    return BishopConfig(bundle_spec=spec), passes


@lru_cache(maxsize=8)
def architecture_ablation(
    model: str = "model3", bs_t: int = 2, bs_n: int = 4, seed: int = 0
) -> dict[str, AblationPoint]:
    """Run every variant on the same trace; returns per-variant totals."""
    spec = BundleSpec(bs_t, bs_n)
    trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=seed)
    points = {}
    for variant in ABLATION_VARIANTS:
        config, passes = _setup_for(variant, spec)
        report = BishopAccelerator(config).run_trace(trace, passes=passes)
        points[variant] = AblationPoint(
            variant=variant,
            latency_s=report.total_latency_s,
            energy_mj=report.total_energy_mj,
        )
    return points
