"""Per-model request profiles: the compiled program of one inference.

Simulating a request does not re-run the numpy core models — a
:class:`RequestProfile` wraps the compiler's
:class:`~repro.compiler.ir.Program` for one (model, chip configuration,
pass configuration, seed) and is replayed cheaply through the event engine
for every request, which is what makes thousand-request serving sweeps
tractable.  Compilation itself is content-addressed
(``repro.compiler.cache``): repeated profile builds — across requests,
chips of the same kind, and even across *worker processes* — reuse the
compiled program instead of re-simulating.

Profiles are chip-aware: passing an explicit :class:`BishopConfig` builds
the task graph for that chip's core provisioning and clock, which is how
the cluster layer gives differently-configured chips (sparse-core-heavy,
dense-core-heavy) different per-model service times.  The ``passes`` knob
selects the compiler passes (``"all"`` / ``"none"`` /
``"packing+stratify+schedule"`` …); with the scheduling pass on, requests
replay under the depth-1 weight-prefetch schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..arch import BishopConfig
from ..arch.engine.machine import LayerTiming
from ..bundles import BundleSpec
from ..compiler import PassConfig, compile_model

__all__ = ["RequestProfile", "profile_config", "request_profile"]


@dataclass(frozen=True)
class RequestProfile:
    """Everything the serving simulator needs about one model's inference."""

    model: str
    timings: tuple[LayerTiming, ...]
    single_latency_s: float        # uncontended engine latency (oracle-equal)
    scheduled: bool = False        # replay under the prefetch schedule
    # Derived once from ``timings``, so per-request batch energy answers
    # from two sums instead of re-walking the layer chain.
    dynamic_pj: float = field(init=False, compare=False)  # batch-1 dynamic energy
    weight_dram_pj: float = field(init=False, repr=False, compare=False)
    # Fraction of core-seconds this model spends on the sparse core (the
    # cluster experiments report it per chip kind; routing does not read it).
    sparse_core_share: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # numpy's pairwise sums, not Python's ``sum`` (they differ from 8
        # layers on): serving energy reaches the artifacts.
        def total(values: list[float]) -> float:
            return float(np.array(values, dtype=np.float64).sum())

        timings = self.timings
        core_s = total([
            t.dense_s + t.sparse_s + t.attention_s + t.spike_gen_s
            for t in timings
        ])
        share = total([t.sparse_s for t in timings]) / core_s if core_s > 0 else 0.0
        object.__setattr__(self, "dynamic_pj", total([t.dynamic_pj for t in timings]))
        object.__setattr__(
            self, "weight_dram_pj", total([t.weight_dram_pj for t in timings])
        )
        object.__setattr__(self, "sparse_core_share", share)

    def batch_dynamic_pj(self, batch: int) -> float:
        """Dynamic energy of one batched request (weights stream once)."""
        return (self.dynamic_pj - self.weight_dram_pj) * batch + self.weight_dram_pj


def profile_config(
    bs_t: int = 2, bs_n: int = 4, dense_fraction: float = 0.5
) -> BishopConfig:
    """The default serving-chip configuration for a bundle shape.

    Stratification uses a fixed dense fraction rather than the per-layer
    balanced-θ search: serving cares about steady-state task durations, and
    the fixed policy keeps profile construction fast enough to build mixes
    over the whole zoo.
    """
    return BishopConfig(
        bundle_spec=BundleSpec(int(bs_t), int(bs_n)),
        stratify_dense_fraction=float(dense_fraction),
    )


def request_profile(
    model: str,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    dense_fraction: float = 0.5,
    config: BishopConfig | None = None,
    passes: "PassConfig | str | None" = None,
) -> RequestProfile:
    """Build (and cache) the serving profile of one Table-2 model.

    An explicit ``config`` (a specific chip's provisioning) takes
    precedence over the ``bs_t``/``bs_n``/``dense_fraction`` shorthand;
    the synthetic trace is still seeded by ``seed`` either way.  The
    profile is derived from the compiled program, so two chips with the
    same configuration share one compilation.
    """
    if config is None:
        config = profile_config(bs_t, bs_n, dense_fraction)
    # Normalized before the cache so positional and keyword call styles
    # share one entry (lru_cache keys them differently).
    return _request_profile(model, config, int(seed), PassConfig.parse(passes))


@lru_cache(maxsize=128)
def _request_profile(
    model: str, config: BishopConfig, seed: int, passes: PassConfig
) -> RequestProfile:
    program = compile_model(model, config, seed=seed, passes=passes)
    timings = program.timings()
    return RequestProfile(
        model=model,
        timings=timings,
        single_latency_s=program.request_latency_s,
        scheduled=program.scheduled,
    )
