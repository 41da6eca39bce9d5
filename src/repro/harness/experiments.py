"""Experiment registry: one :class:`Experiment` per paper table/figure.

Each registry entry carries metadata — the paper artifact it reproduces, a
cost tier, and a typed parameter schema derived from the callable's
signature (:mod:`repro.schema`) — plus the callable that computes a
JSON-serializable dict.  Benches, examples, EXPERIMENTS.md generation, and
the parallel runtime (``repro.runtime``) all consume the same artifacts.
See DESIGN.md's per-experiment index for the mapping to paper artifacts.

``smoke_params`` give a cheap-but-representative configuration for each
experiment; the contract tests and CI smoke runs use them so the full
registry can be exercised in seconds instead of minutes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..algo import BundleSparsityLoss, ECPConfig, ecp_prune_qk
from ..arch import BISHOP_BREAKDOWN, PTB_BREAKDOWN
from ..arch.attention_core import merge_attention_heads
from ..bundles import BundleSpec, density_report
from ..model import (
    MODEL_ZOO,
    SpikingTransformer,
    flops_breakdown,
    model_config,
    tiny_config,
)
from ..arch.stratifier import stratify, theta_for_dense_fraction
from ..train import (
    TrainConfig,
    Trainer,
    make_image_dataset,
    model_bundle_distributions,
)
from ..schema import ParamSpec, signature_params
from . import endtoend, fig11, fig14, fig15, fig16, hetero, table1
from .synthetic import PROFILES, synthetic_trace

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ParamSpec",
    "run_experiment",
]

COST_TIERS = ("cheap", "medium", "heavy")


def _models(models: str) -> tuple[str, ...]:
    """Parse a model list, validating against the zoo.

    Accepts ``,`` or ``+`` as separators: on the CLI, ``,`` already
    delimits sweep-axis values, so a multi-model value in one grid point
    is written ``--param models=model1+model3``.
    """
    names = tuple(m.strip() for m in re.split(r"[+,]", models) if m.strip())
    unknown = [m for m in names if m not in MODEL_ZOO]
    if not names or unknown:
        raise ValueError(
            f"bad model list {models!r}; choose from {sorted(MODEL_ZOO)}"
        )
    return names


# ----------------------------------------------------------------------
# Registry schema
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """A registered paper artifact: callable plus run metadata.

    ``params`` is derived from ``fn``'s signature (see :mod:`repro.schema`);
    ``param_help`` rewords the shared help text of overridable names.
    """

    id: str
    artifact: str
    fn: Callable[..., dict]
    cost: str = "cheap"
    param_help: Mapping[str, str] = field(default_factory=dict)
    smoke_params: Mapping[str, int | float | str] = field(default_factory=dict)
    description: str = ""
    params: Mapping[str, ParamSpec] = field(init=False)

    def __post_init__(self) -> None:
        if self.cost not in COST_TIERS:
            raise ValueError(f"{self.id}: bad cost tier {self.cost!r}")
        object.__setattr__(
            self, "params", signature_params(self.fn, self.param_help)
        )
        unknown = set(self.smoke_params) - set(self.params)
        if unknown:
            raise ValueError(f"{self.id}: smoke params not in schema: {unknown}")

    def resolve_params(self, overrides: Mapping[str, object] | None = None) -> dict:
        """Defaults merged with ``overrides``, validated against the schema."""
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ValueError(
                f"experiment {self.id!r} has no parameter(s) {sorted(unknown)};"
                f" schema: {sorted(self.params)}"
            )
        resolved = {name: spec.default for name, spec in self.params.items()}
        for name, value in overrides.items():
            resolved[name] = self.cast(name, value)
        return resolved

    def cast(self, name: str, value: object) -> int | float | str:
        """``value`` as parameter ``name``'s kind; errors name the parameter."""
        try:
            return self.params[name].cast(value)
        except ValueError as error:
            raise ValueError(f"{self.id} parameter {name!r}: {error}") from None

    def run(self, **overrides: object) -> dict:
        return self.fn(**self.resolve_params(overrides))


# ----------------------------------------------------------------------
# Experiment callables
# ----------------------------------------------------------------------
def experiment_table1(seed: int = 0, epochs: int = 12) -> dict:
    """Table 1 — trained-accuracy grid across network families."""
    return {
        row.network: {"family": row.family, "accuracy": row.accuracy}
        for row in table1.run_table1(seed=seed, epochs=epochs)
    }


def experiment_table2() -> dict:
    """Table 2 — the model zoo."""
    return {
        name: {
            "blocks": cfg.num_blocks,
            "timesteps": cfg.timesteps,
            "tokens": cfg.num_tokens,
            "features": cfg.embed_dim,
            "input_kind": cfg.input_kind,
        }
        for name, cfg in MODEL_ZOO.items()
    }


def experiment_fig3() -> dict:
    """Fig. 3 — FLOPs breakdown vs (N, D) and depth."""
    sweeps = {}
    for n_tokens, d in ((64, 384), (128, 256), (196, 128), (256, 384)):
        for blocks in (4, 8):
            # sequence input_kind frees N from the image-grid constraint;
            # the encoder-block FLOPs (the figure's subject) are identical.
            config = model_config("model1").with_overrides(
                name=f"sweep-N{n_tokens}-D{d}-L{blocks}",
                num_tokens=n_tokens,
                embed_dim=d,
                num_blocks=blocks,
                input_kind="sequence",
            )
            profile = flops_breakdown(config)
            sweeps[f"N{n_tokens}_D{d}_L{blocks}"] = {
                "attention_fraction": profile.attention_fraction,
                "mlp_fraction": profile.mlp_fraction,
                "attention_plus_mlp_fraction": profile.attention_plus_mlp_fraction,
                "total_flops": profile.total,
            }
    return sweeps


def experiment_fig5(seed: int = 0, epochs: int = 12) -> dict:
    """Fig. 5 — active-bundle distribution without vs with BSA (trained).

    λ is larger than the paper's 0.3-1.0 because our L_bsp is normalized
    per-bundle and training runs ~12 epochs instead of 300.
    """
    spec = BundleSpec(2, 2)
    dataset = make_image_dataset(num_classes=4, samples_per_class=24, image_size=16, seed=3)
    out = {}
    for label, lambda_bsp in (("baseline", 0.0), ("bsa", 10.0)):
        model = SpikingTransformer(tiny_config(num_classes=4), seed=seed + 1)
        bsa = BundleSparsityLoss(spec) if lambda_bsp else None
        trainer = Trainer(
            model, dataset,
            TrainConfig(epochs=epochs, batch_size=24, lr=3e-3, lambda_bsp=lambda_bsp, seed=seed),
            bsa_loss=bsa,
        )
        trainer.fit()
        distributions = model_bundle_distributions(model, dataset, spec)
        qk = {k: v for k, v in distributions.items() if k.endswith((".q", ".k"))}
        out[label] = {
            "accuracy": trainer.evaluate(dataset.x_test, dataset.y_test),
            "zero_feature_fraction": float(np.mean([d.zero_fraction for d in qk.values()])),
            "mean_active_bundles": float(np.mean([d.mean_active for d in qk.values()])),
        }
    return out


def experiment_fig6(seed: int = 0) -> dict:
    """Fig. 6 — density of the raw vs stratified workload, ± BSA."""
    spec = BundleSpec(2, 4)
    config = model_config("model1")
    out = {}
    for label, profile in (
        ("without_bsa", PROFILES["model1"]),
        ("with_bsa", PROFILES["model1"].bsa_variant()),
    ):
        trace = synthetic_trace(config, profile, spec, seed=seed)
        spikes = trace.layers(kind="proj_o", block=2)[0].input_spikes
        theta = theta_for_dense_fraction(spikes, spec, 0.5)
        workload = stratify(spikes, spec, theta)
        out[label] = {
            "overall": vars(density_report(spikes, spec)),
            "stratified_down_dense": vars(
                density_report(spikes, spec, workload.dense_features)
            ),
            "stratified_up_sparse": vars(
                density_report(spikes, spec, workload.sparse_features)
            ),
        }
    return out


def experiment_fig8(seed: int = 0) -> dict:
    """Fig. 8 — ECP sharpens attention: score-mass concentration stats."""
    spec = BundleSpec(2, 4)
    config = model_config("model3")
    trace = synthetic_trace(config, PROFILES["model3"].bsa_variant(), spec, seed=seed)
    record = trace.layers(kind="attention")[-1]  # final block, as in the figure
    q = merge_attention_heads(record.q)
    k = merge_attention_heads(record.k)
    ecp = ECPConfig(theta_q=6, theta_k=6, spec=spec)
    q_pruned, k_pruned, report = ecp_prune_qk(q, k, ecp)

    # Integer scores: on bool spikes a plain einsum is a logical OR.
    scores_before = np.einsum("tnd,tmd->tnm", q, k, dtype=np.int64)
    scores_after = np.einsum("tnd,tmd->tnm", q_pruned, k_pruned, dtype=np.int64)
    max_error = float(np.abs(scores_before - scores_after).max())
    total_mass = float(scores_before.sum())
    return {
        # ECP "enhances focus": the same attention mass concentrates into a
        # much smaller set of surviving score entries.
        "nonzero_score_fraction_before": float((scores_before > 0).mean()),
        "nonzero_score_fraction_after": float((scores_after > 0).mean()),
        "retained_mass_fraction": float(scores_after.sum()) / total_mass if total_mass else 1.0,
        "q_keep_fraction": report.q_token_keep_fraction,
        "k_keep_fraction": report.k_token_keep_fraction,
        "max_score_error": max_error,
        "certified_bound": report.error_bound,
    }


def experiment_fig11(models: str = "model1,model2,model3,model4") -> dict:
    """Fig. 11 — layerwise Bishop-vs-PTB latency/energy ratios."""
    return {
        model: {
            "mean_latency_ratio": fig11.layerwise_comparison(model).mean_latency_ratio(),
            "mean_energy_ratio": fig11.layerwise_comparison(model).mean_energy_ratio(),
        }
        for model in _models(models)
    }


def experiment_fig12(
    models: str = "model1,model2,model3,model4,model5",
    seed: int = 0,
    bs_t: int = 2,
    bs_n: int = 4,
) -> dict:
    """Fig. 12 — end-to-end latency across the five systems."""
    grid = endtoend.run_grid(_models(models), bs_t=bs_t, bs_n=bs_n, seed=seed)
    return {
        model: {
            "normalized_latency": comparison.normalized_latency(),
            "latency_ms": {
                system: result.latency_s * 1e3
                for system, result in comparison.results.items()
            },
            "speedup_vs_ptb": {
                system: comparison.speedup_vs(system)
                for system in ("bishop", "bishop_bsa", "bishop_bsa_ecp")
            },
        }
        for model, comparison in grid.items()
    }


def experiment_fig13(
    models: str = "model1,model2,model3,model4,model5",
    seed: int = 0,
    bs_t: int = 2,
    bs_n: int = 4,
) -> dict:
    """Fig. 13 — end-to-end energy across the five systems."""
    grid = endtoend.run_grid(_models(models), bs_t=bs_t, bs_n=bs_n, seed=seed)
    return {
        model: {
            "normalized_energy": comparison.normalized_energy(),
            "energy_mj": {
                system: result.energy_mj
                for system, result in comparison.results.items()
            },
            "energy_gain_vs_ptb": {
                system: comparison.energy_gain_vs(system)
                for system in ("bishop", "bishop_bsa", "bishop_bsa_ecp")
            },
        }
        for model, comparison in grid.items()
    }


def experiment_fig14(models: str = "model1,model2,model3,model4") -> dict:
    """Fig. 14 — ECP threshold sweep over the SSA layers."""
    return {
        model: [vars(p) for p in fig14.ecp_hardware_sweep(model)]
        for model in _models(models)
    }


def experiment_fig15(model: str = "model3") -> dict:
    """Fig. 15 — stratification-threshold sweep."""
    sweep = fig15.stratification_sweep(model)
    return {
        "model": model,
        "points": [{**vars(p), "edp": p.edp} for p in sweep.points],
        "balanced": {**vars(sweep.balanced), "edp": sweep.balanced.edp},
        "edp_gain_vs_ptb": sweep.edp_gain_vs_ptb,
        "worst_imbalance_penalty": sweep.worst_imbalance_penalty,
    }


def experiment_fig16(model: str = "model3") -> dict:
    """Fig. 16 — TTB bundle-volume sweep."""
    points = fig16.bundle_volume_sweep(model)
    best = min(points, key=lambda p: p.total_latency_s)
    return {
        "model": model,
        "points": [{**vars(p), "volume": p.volume} for p in points],
        "best_volume": {"bs_t": best.bs_t, "bs_n": best.bs_n, "volume": best.volume},
    }


def experiment_fig17() -> dict:
    """Fig. 17 — synthesized power/area breakdown (anchor table)."""
    return {
        "bishop": {
            name: {"area_mm2": area, "power_mw": power}
            for name, (area, power) in BISHOP_BREAKDOWN.components.items()
        },
        "bishop_totals": {
            "area_mm2": BISHOP_BREAKDOWN.total_area_mm2,
            "power_mw": BISHOP_BREAKDOWN.total_power_mw,
        },
        "ptb_totals": {
            "area_mm2": PTB_BREAKDOWN.total_area_mm2,
            "power_mw": PTB_BREAKDOWN.total_power_mw,
        },
    }


def experiment_sec62(
    models: str = "model1,model2,model3,model4,model5",
    seed: int = 0,
    bs_t: int = 2,
    bs_n: int = 4,
) -> dict:
    """Sec. 6.2 — headline averages across the model zoo."""
    grid = endtoend.run_grid(_models(models), bs_t=bs_t, bs_n=bs_n, seed=seed)
    summary = endtoend.headline_summary(grid)
    summary["per_model_speedup_vs_ptb"] = {
        m: c.speedup_vs("bishop_bsa_ecp") for m, c in grid.items()
    }
    return summary


def experiment_sec64_hetero(
    model: str = "model3", bs_t: int = 2, bs_n: int = 4, seed: int = 0
) -> dict:
    """Sec. 6.4 — heterogeneous cores vs dense-only ablation."""
    return vars(hetero.heterogeneity_ablation(model, bs_t=bs_t, bs_n=bs_n, seed=seed))


def experiment_sec64_attn(models: str = "model1,model2,model3,model4") -> dict:
    """Sec. 6.4 — attention-core comparison vs PTB."""
    return {
        model: {
            "latency_gain": hetero.attention_core_comparison(model).latency_gain,
            "energy_gain": hetero.attention_core_comparison(model).energy_gain,
        }
        for model in _models(models)
    }


# ----------------------------------------------------------------------
# Serving experiments (beyond the paper: multi-request engine simulation)
# ----------------------------------------------------------------------
def _serve_setup(
    mix: str, bs_t: int, bs_n: int, seed: int, rho: float, passes: str = "all"
):
    """Shared serving preamble: parse the mix, compile per-model profiles
    (under the requested compiler passes), and derive the arrival rate
    realizing load ``rho`` on the mix's mean single-request latency.
    Returns ``(weights, profiles, rate_rps)``."""
    # Imported lazily: repro.serve builds on repro.harness.synthetic, so a
    # top-level import would cycle through the package initializer.
    from ..serve import parse_model_mix, request_profile

    weights = parse_model_mix(mix)
    profiles = {
        m: request_profile(m, bs_t, bs_n, seed, passes=passes) for m in weights
    }
    mean_latency = sum(w * profiles[m].single_latency_s for m, w in weights.items())
    return weights, profiles, rho / mean_latency


def _serve_arrivals(
    arrival: str,
    num_requests: int,
    rate: float,
    weights: dict[str, float],
    seed: int,
    burst_factor: float,
):
    from ..serve import arrival_trace

    if arrival not in ("poisson", "bursty"):
        raise ValueError(f"unknown arrival kind {arrival!r}; use poisson|bursty")
    return arrival_trace(
        arrival, num_requests, rate, weights, seed, burst_factor=burst_factor
    )


def experiment_serve_latency_cdf(
    mix: str = "model4",
    rho: float = 0.7,
    num_requests: int = 400,
    seed: int = 0,
    arrival: str = "poisson",
    burst_factor: float = 8.0,
    max_batch: int = 1,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "all",
) -> dict:
    """Serving — latency percentiles/throughput under an arrival stream.

    ``rho`` is the offered load relative to one chip's single-request
    service rate on the mix's mean inference latency; the arrival rate is
    derived from it so the experiment is meaningful across model mixes.
    ``passes`` selects the compiler passes the request programs are built
    with (program-cached across runs and worker processes).
    """
    from ..serve import SchedulerConfig, simulate_serving

    weights, profiles, rate = _serve_setup(mix, bs_t, bs_n, seed, rho, passes)
    requests = _serve_arrivals(
        arrival, num_requests, rate, weights, seed, burst_factor
    )
    report = simulate_serving(
        requests,
        SchedulerConfig(max_batch=max_batch, max_inflight=max_inflight),
        profiles=profiles,
        bs_t=bs_t,
        bs_n=bs_n,
        seed=seed,
    )
    return {
        "mix": weights,
        "arrival": arrival,
        "target_rho": rho,
        "passes": passes,
        "arrival_rate_rps": rate,
        "single_latency_ms": {
            m: profiles[m].single_latency_s * 1e3 for m in weights
        },
        **report.to_dict(),
    }


def experiment_serve_batch_sweep(
    mix: str = "model4",
    rho: float = 1.5,
    num_requests: int = 300,
    seed: int = 0,
    batch_sizes: str = "1+2+4+8",
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "all",
) -> dict:
    """Serving — batch-size sweep under backlog.

    The same (overloaded, so queues actually form) arrival stream is
    served at each ``max_batch``; batching amortizes weight streaming, so
    the sweep exposes the throughput / tail-latency / energy-per-request
    trade-off.
    """
    from ..serve import SchedulerConfig, simulate_serving

    weights, profiles, rate = _serve_setup(mix, bs_t, bs_n, seed, rho, passes)
    sizes = [int(b) for b in batch_sizes.split("+") if b.strip()]
    if not sizes or any(b < 1 for b in sizes):
        raise ValueError(f"bad batch_sizes {batch_sizes!r}; e.g. '1+2+4'")
    requests = _serve_arrivals("poisson", num_requests, rate, weights, seed, 8.0)
    points = {}
    for batch in sizes:
        report = simulate_serving(
            requests,
            SchedulerConfig(max_batch=batch, max_inflight=max_inflight),
            profiles=profiles,
            bs_t=bs_t,
            bs_n=bs_n,
            seed=seed,
        )
        points[str(batch)] = {
            "throughput_rps": report.throughput_rps,
            "p95_latency_ms": report.latency_percentiles_ms["p95"],
            "mean_batch_size": report.mean_batch_size,
            "energy_per_request_mj": report.energy_per_request_mj,
            "dram_utilization": report.utilization.get("dram", 0.0),
        }
    return {
        "mix": weights,
        "target_rho": rho,
        "arrival_rate_rps": rate,
        "points": points,
    }


# ----------------------------------------------------------------------
# Continuous batching / preemption / multi-tenant serving experiments
# ----------------------------------------------------------------------
def _tier_latencies(report) -> dict[str, list[float]]:
    tiers: dict[str, list[float]] = {}
    for request in report.requests:
        tiers.setdefault(str(request.priority), []).append(request.latency_s)
    return tiers


def _tier_stats(report) -> dict[str, dict]:
    from ..serve import latency_stats

    return {
        tier: {
            "count": stats.count,
            "mean_ms": stats.mean_ms,
            "p99_ms": stats.percentiles_ms["p99"],
        }
        for tier, samples in sorted(_tier_latencies(report).items())
        for stats in (latency_stats(samples),)
    }


def experiment_serve_continuous_batching(
    mix: str = "model4",
    rho: float = 1.5,
    num_requests: int = 300,
    priority_mix: str = "0:0.8+1:0.2",
    seed: int = 0,
    max_batch: int = 4,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "packing+stratify+ecp",
) -> dict:
    """Serving — continuous batching vs static same-model batching.

    One arrival trace, served three ways: static batching (priority
    blind, so the plain and prioritized streams yield identical
    per-request latencies); continuous batching on the prioritized
    stream (preempted entries checkpoint mid-model and later *join*
    other in-flight groups at their stage — the join/leave counters);
    and the *degenerate* continuous configuration (one tier, joins and
    preemption off) which must reproduce the static per-request
    latencies to float precision — the conformance pin that keeps the
    two schedulers semantically anchored.  The default ``passes`` omit
    the prefetch-scheduling pass because continuous mode executes
    stage-serially (a preemptable boundary per compiled stage precludes
    the depth-1 weight-prefetch replay).
    """
    from ..serve import SchedulerConfig, assign_priorities, simulate_serving

    weights, profiles, rate = _serve_setup(mix, bs_t, bs_n, seed, rho, passes)
    plain = _serve_arrivals("poisson", num_requests, rate, weights, seed, 8.0)
    prioritized = assign_priorities(plain, priority_mix, seed=seed)
    common = dict(profiles=profiles, bs_t=bs_t, bs_n=bs_n, seed=seed)
    static = simulate_serving(
        plain,
        SchedulerConfig(max_batch=max_batch, max_inflight=max_inflight),
        **common,
    )
    continuous = simulate_serving(
        prioritized,
        SchedulerConfig(
            max_batch=max_batch, max_inflight=max_inflight, mode="continuous"
        ),
        **common,
    )
    degenerate = simulate_serving(
        plain,
        SchedulerConfig(
            max_batch=max_batch, max_inflight=max_inflight,
            mode="continuous", allow_join=False, preempt=False,
        ),
        **common,
    )
    conformance = max(
        (
            abs(a.latency_s - b.latency_s)
            for a, b in zip(static.requests, degenerate.requests)
        ),
        default=0.0,
    )
    top = max(
        (str(r.priority) for r in continuous.requests), key=int, default="0"
    )
    return {
        "mix": weights,
        "priority_mix": priority_mix,
        "target_rho": rho,
        "passes": passes,
        "arrival_rate_rps": rate,
        "static": static.to_dict(),
        "continuous": continuous.to_dict(),
        "continuous_joins": continuous.continuous_joins,
        "preemptions": continuous.preemptions,
        "tiers": _tier_stats(continuous),
        "degenerate_latency_conformance_s": conformance,
        "high_tier_p99_gain": (
            static.latency_percentiles_ms["p99"]
            / _tier_stats(continuous)[top]["p99_ms"]
            if _tier_stats(continuous).get(top, {}).get("p99_ms", 0.0) > 0
            else 0.0
        ),
    }


def experiment_serve_preemption_slo(
    mix: str = "model4",
    rho: float = 2.0,
    num_requests: int = 300,
    priority_mix: str = "0:0.8+1:0.2",
    seed: int = 0,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "packing+stratify+ecp",
) -> dict:
    """Serving — what stage-boundary preemption buys the high tier.

    A saturated stream (``rho > 1``) with a priority mix is served by
    FIFO, by continuous scheduling without preemption, and by continuous
    scheduling with preemption.  Preemption must strictly improve the
    high-priority p99 over FIFO while conserving total work: all three
    runs execute the same stages at batch 1, so per-resource busy
    seconds agree to float tolerance (``busy_conservation_rel_err``) —
    preemption reorders work, it never creates or destroys any.
    """
    from ..serve import (
        SchedulerConfig,
        assign_priorities,
        simulate_serving,
    )

    weights, profiles, rate = _serve_setup(mix, bs_t, bs_n, seed, rho, passes)
    requests = assign_priorities(
        _serve_arrivals("poisson", num_requests, rate, weights, seed, 8.0),
        priority_mix,
        seed=seed,
    )
    common = dict(
        profiles=profiles, bs_t=bs_t, bs_n=bs_n, seed=seed,
        record_timeline=False,
    )
    fifo = simulate_serving(
        requests, SchedulerConfig(max_inflight=max_inflight), **common
    )
    no_preempt = simulate_serving(
        requests,
        SchedulerConfig(
            max_inflight=max_inflight, mode="continuous", preempt=False
        ),
        **common,
    )
    preempt = simulate_serving(
        requests,
        SchedulerConfig(max_inflight=max_inflight, mode="continuous"),
        **common,
    )
    # Work conservation: identical per-resource busy seconds across the
    # three schedules (float sum-order drift only).
    units = sorted(fifo.run.utilization())
    conservation = max(
        (
            abs(report.run.busy_s(unit) - fifo.run.busy_s(unit))
            / max(fifo.run.busy_s(unit), 1e-30)
            for report in (no_preempt, preempt)
            for unit in units
            if fifo.run.busy_s(unit) > 0
        ),
        default=0.0,
    )
    tiers = {
        "fifo": _tier_stats(fifo),
        "continuous_no_preempt": _tier_stats(no_preempt),
        "continuous_preempt": _tier_stats(preempt),
    }
    top = max(
        (str(r.priority) for r in preempt.requests), key=int, default="0"
    )
    fifo_p99 = tiers["fifo"].get(top, {}).get("p99_ms", 0.0)
    preempt_p99 = tiers["continuous_preempt"].get(top, {}).get("p99_ms", 0.0)
    return {
        "mix": weights,
        "priority_mix": priority_mix,
        "target_rho": rho,
        "passes": passes,
        "arrival_rate_rps": rate,
        "tiers": tiers,
        "preemptions": preempt.preemptions,
        "top_tier": top,
        "high_priority_p99_ms": {"fifo": fifo_p99, "preempt": preempt_p99},
        "high_priority_p99_improves": preempt_p99 < fifo_p99,
        "busy_conservation_rel_err": conservation,
    }


def experiment_cluster_multitenant_fairness(
    mix: str = "model4",
    rho: float = 3.0,
    tenants: str = "gold:3+silver:1",
    fleet_size: int = 2,
    num_requests: int = 400,
    seed: int = 0,
    quota: int = 0,
    max_batch: int = 1,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "packing+stratify+ecp",
) -> dict:
    """Cluster — weighted fair queuing across tenants at saturation.

    Tenants are assigned uniformly (each offers the same load), so while
    the backlog lasts the continuous scheduler's WFQ rule serves tenants
    in proportion to their declared weights — the payload reports the
    served share inside the saturated window (finishes before the last
    arrival) against the weight share, plus the per-tenant latency
    ordering (heavier weight, lower p99).  ``quota`` (> 0) additionally
    bounds each tenant's outstanding requests at admission,
    demonstrating per-tenant shedding in the report block.
    """
    from ..cluster import (
        ShardingConfig,
        homogeneous_fleet,
        simulate_cluster_sharded,
    )
    from ..serve import (
        SchedulerConfig,
        TenantSpec,
        assign_tenants,
        parse_tenants,
    )

    specs = parse_tenants(tenants)
    if quota:
        specs = tuple(
            TenantSpec(s.name, s.weight, quota) for s in specs
        )
    weights, profiles, rate = _serve_setup(mix, bs_t, bs_n, seed, rho, passes)
    stream = assign_tenants(
        _serve_arrivals(
            "poisson", num_requests, rate * fleet_size, weights, seed, 8.0
        ),
        specs,
        seed=seed,
    )
    # A finite run-to-completion stream serves *everything*, so the
    # full-run service share converges to the offered share (uniform)
    # regardless of weights.  WFQ's signature shows while the backlog
    # lasts: served share inside the saturated window (finishes by the
    # last arrival), and the per-tenant latency ordering.  The first
    # coordination window ends at the last arrival, so its per-tenant
    # completions are exactly that count.
    window_end = max((r.arrival_s for r in stream), default=0.0)
    report = simulate_cluster_sharded(
        stream,
        homogeneous_fleet(fleet_size),
        SchedulerConfig(
            max_batch=max_batch, max_inflight=max_inflight, mode="continuous"
        ),
        sharding=ShardingConfig(window_s=max(window_end, 1e-9)),
        bs_t=bs_t,
        bs_n=bs_n,
        seed=seed,
        passes=passes,
        tenants=specs,
    )
    window_counts: dict[str, int] = {spec.name: 0 for spec in specs}
    window_counts.update(report.windows[0].tenant_served)
    window_total = sum(window_counts.values())
    total_weight = sum(spec.weight for spec in specs)
    fairness = {
        spec.name: {
            "weight_share": spec.weight / total_weight,
            "window_served_share": (
                window_counts.get(spec.name, 0) / window_total
                if window_total else 0.0
            ),
            "service_share": report.tenants[spec.name]["service_share"],
            "p99_ms": report.tenants[spec.name]["latency_ms"]["p99"],
        }
        for spec in specs
    }
    worst = max(
        (
            abs(row["window_served_share"] - row["weight_share"])
            for row in fairness.values()
        ),
        default=0.0,
    )
    by_weight = sorted(specs, key=lambda s: s.weight, reverse=True)
    latency_ordered = all(
        fairness[a.name]["p99_ms"] <= fairness[b.name]["p99_ms"]
        for a, b in zip(by_weight, by_weight[1:])
        if a.weight > b.weight
    )
    return {
        "mix": weights,
        "tenants": tenants,
        "quota": quota,
        "target_rho": rho,
        "passes": passes,
        "fleet_size": fleet_size,
        "served": report.served,
        "shed": report.shed,
        "window_served": window_total,
        "per_tenant": report.to_dict().get("tenants", {}),
        "fairness": fairness,
        "worst_window_share_error": worst,
        "latency_weight_ordered": latency_ordered,
    }


# ----------------------------------------------------------------------
# Compiler experiments (beyond the paper: pass-pipeline ablation)
# ----------------------------------------------------------------------
def experiment_compiler_pass_ablation(
    model: str = "model3",
    dram_gbps: float = 2.4,
    theta_q: float = 6.0,
    theta_k: float = 6.0,
    seed: int = 0,
    bs_t: int = 2,
    bs_n: int = 4,
) -> dict:
    """Compiler — what each optimization pass contributes.

    The same trace is compiled six times: all passes on, each optimization
    pass individually off, and all off.  The chip is the serving
    configuration with a configurable DRAM bandwidth; the 2.4 GB/s default
    models an LPDDR-class edge deployment where the memory system is the
    scarce resource and the prefetch scheduling pass has room to work — at
    the paper's 76.8 GB/s the Table-2 zoo is uniformly compute-bound, the
    scheduling pass is neutral, and only packing/stratify/ECP move the
    needle (set ``dram_gbps=76.8`` to see exactly that).
    """
    import dataclasses

    from ..algo import ECPConfig
    from ..compiler import PassConfig, ProgramCache, compile_model
    from ..serve.profiles import profile_config

    if dram_gbps <= 0:
        raise ValueError(f"dram_gbps must be positive, got {dram_gbps}")
    base = profile_config(bs_t, bs_n)
    config = base.with_overrides(
        dram=dataclasses.replace(
            base.dram, bandwidth_bytes_per_s=dram_gbps * 1e9
        )
    )
    ecp = ECPConfig(theta_q=theta_q, theta_k=theta_k, spec=config.bundle_spec)
    variants = {
        "all": PassConfig(),
        "no_packing": PassConfig().without("packing"),
        "no_stratify": PassConfig().without("stratify"),
        "no_ecp": PassConfig().without("ecp"),
        "no_schedule": PassConfig().without("schedule"),
        "none": PassConfig.parse("none"),
    }
    # Off-default chips stay out of the shared on-disk program store; the
    # run-level result cache already memoizes the whole experiment.
    cache = ProgramCache(None)
    rows = {}
    for name, pass_config in variants.items():
        program = compile_model(
            model, config, seed=seed, ecp=ecp, passes=pass_config, cache=cache
        )
        scheduled_ms = (
            program.scheduled_latency_s * 1e3
            if program.scheduled_latency_s is not None
            else None
        )
        rows[name] = {
            "passes": pass_config.spec(),
            "pipeline": list(program.passes),
            "stages": len(program.stages),
            "serial_latency_ms": program.serial_latency_s * 1e3,
            "scheduled_latency_ms": scheduled_ms,
            "request_latency_ms": program.request_latency_s * 1e3,
            "pipelined_bound_ms": program.pipelined_bound_s * 1e3,
            "dynamic_energy_mj": program.dynamic_pj * 1e-9,
            "dram_mb": program.dram_bytes / 1e6,
            "bundle_occupancy": program.bundle_occupancy(),
            "tile_counts": program.tile_counts(),
        }
    full = rows["all"]["request_latency_ms"]
    baseline = rows["none"]["request_latency_ms"]
    no_schedule = rows["no_schedule"]["request_latency_ms"]
    return {
        "model": model,
        "dram_gbps": dram_gbps,
        "ecp": {"theta_q": theta_q, "theta_k": theta_k},
        "variants": rows,
        "summary": {
            "speedup_all_vs_none": baseline / full if full else 0.0,
            # The scheduling pass in isolation: all-on (scheduled makespan)
            # vs the same mapping without the pass (serial makespan).
            "schedule_makespan_gain": (
                1.0 - full / no_schedule if no_schedule else 0.0
            ),
            "pass_cost_ms": {
                name: rows[name]["request_latency_ms"] - full
                for name in ("no_packing", "no_stratify", "no_ecp", "no_schedule")
            },
        },
    }


# ----------------------------------------------------------------------
# DSE experiments (beyond the paper: joint chip-design-space search)
# ----------------------------------------------------------------------
def experiment_dse_point(
    model: str = "model3", point: str = "{}", seed: int = 0
) -> dict:
    """DSE — compile + engine-measure one chip design point.

    ``point`` is a JSON object over the default space's parameters
    (missing keys take the paper defaults).  This is the unit the
    ``repro dse`` explorer fans out through the parallel runtime: the
    result cache keys on (model, point, seed), so re-running a search —
    or growing its budget — replays evaluated candidates from disk.
    """
    import json as _json

    from ..dse import evaluate_point

    return evaluate_point(model, _json.loads(point), seed=seed)


def experiment_dse_pareto_frontier(
    model: str = "model3",
    strategy: str = "random",
    budget: int = 48,
    objectives: str = "latency_ms+energy_mj+area_mm2",
    seed: int = 0,
) -> dict:
    """DSE — multi-objective search of the Bishop chip space.

    Searches ``budget`` candidate chips with the chosen strategy and
    extracts the Pareto frontier over the ``'+'``-separated objectives.
    The paper's Sec.-6.1 chip is always evaluated as the reference; the
    report records whether it lands on the computed frontier and its
    ε-slack when it does not.  Candidates evaluate inline here (the
    runtime's result cache memoizes the whole experiment); the
    ``repro dse`` CLI runs the same search with per-candidate caching
    and worker-pool parallelism.
    """
    from ..dse import DSEConfig, parse_objectives, run_dse

    return run_dse(
        DSEConfig(
            model=model,
            strategy=strategy,
            budget=budget,
            objectives=parse_objectives(objectives),
            seed=seed,
        )
    )


def experiment_dse_strategy_ablation(
    model: str = "model4",
    strategies: str = "grid+random+evolutionary",
    budget: int = 32,
    objectives: str = "latency_ms+energy_mj+area_mm2",
    seed: int = 0,
) -> dict:
    """DSE — search-strategy comparison at a fixed evaluation budget.

    Every strategy searches the same space with the same budget and
    seed; the combined frontier over the union of all candidates is the
    yardstick.  Per strategy the report carries its frontier size, its
    best value per objective, and its *coverage* — the fraction of
    combined-frontier designs it discovered (grid prefixes enumerate a
    corner of the space; random and evolutionary trade breadth for
    refinement around the frontier).
    """
    from ..dse import (
        DSEConfig,
        frontier_slack,
        pareto_frontier,
        parse_objectives,
        run_dse,
    )
    from ..dse.space import point_key

    names = [s.strip() for s in strategies.split("+") if s.strip()]
    if not names:
        raise ValueError(f"bad strategies {strategies!r}; e.g. 'grid+random'")
    keys = parse_objectives(objectives)
    reports = {
        name: run_dse(
            DSEConfig(
                model=model, strategy=name, budget=budget,
                objectives=keys, seed=seed,
            )
        )
        for name in names
    }
    pool: list[dict] = []
    seen: set[str] = set()
    for report in reports.values():
        for candidate in report["candidates"]:
            key = point_key(candidate["point"])
            if key not in seen:
                seen.add(key)
                pool.append(candidate)
    combined_indices = pareto_frontier([c["metrics"] for c in pool], keys)
    combined_keys = {point_key(pool[i]["point"]) for i in combined_indices}
    combined_metrics = [pool[i]["metrics"] for i in combined_indices]
    results = {}
    for name, report in reports.items():
        found = {point_key(c["point"]) for c in report["candidates"]}
        own_frontier = [e["metrics"] for e in report["frontier"]]
        results[name] = {
            "evaluated": report["evaluated"],
            "frontier_size": len(report["frontier"]),
            "coverage_of_combined_frontier": (
                len(combined_keys & found) / len(combined_keys)
                if combined_keys
                else 0.0
            ),
            # How far this strategy's frontier sits from the combined one
            # (mean slack of its frontier members, 0 = every member holds up).
            "mean_frontier_slack": (
                sum(
                    frontier_slack(m, combined_metrics, keys)
                    for m in own_frontier
                ) / len(own_frontier)
                if own_frontier
                else 0.0
            ),
            "best": report["best"],
        }
    return {
        "model": model,
        "budget": budget,
        "seed": seed,
        "objectives": list(keys),
        "combined_frontier_size": len(combined_indices),
        "union_candidates": len(pool),
        "strategies": results,
    }


# ----------------------------------------------------------------------
# Cluster experiments (beyond the paper: multi-chip fleet simulation)
# ----------------------------------------------------------------------
def experiment_cluster_scaling_curve(
    mix: str = "model4",
    rho: float = 5.0,
    fleet_sizes: str = "1+2+4",
    kind: str = "standard",
    policy: str = "least_work",
    num_requests: int = 600,
    seed: int = 0,
    max_batch: int = 1,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "all",
) -> dict:
    """Cluster — throughput and latency percentiles vs fleet size.

    ``rho`` is offered load relative to ONE chip *of the fleet's kind*
    (so the default 5.0 saturates small fleets); every fleet size serves
    the SAME arrival stream, and the single-chip ``repro.serve``
    simulation of that stream — on the same kind's profiles — is included
    as the reference (the N=1 fleet must match it).
    """
    from ..cluster import chip_config, homogeneous_fleet, simulate_cluster_sharded
    from ..serve import (
        SchedulerConfig,
        parse_model_mix,
        request_profile,
        simulate_serving,
    )

    weights = parse_model_mix(mix)
    config = chip_config(kind, bs_t, bs_n)
    profiles = {
        model: request_profile(model, seed=seed, config=config, passes=passes)
        for model in weights
    }
    mean_latency = sum(
        weight * profiles[model].single_latency_s
        for model, weight in weights.items()
    )
    rate = rho / mean_latency
    sizes = [int(n) for n in fleet_sizes.split("+") if n.strip()]
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"bad fleet_sizes {fleet_sizes!r}; e.g. '1+2+4'")
    requests = _serve_arrivals("poisson", num_requests, rate, weights, seed, 8.0)
    scheduler = SchedulerConfig(max_batch=max_batch, max_inflight=max_inflight)
    single = simulate_serving(
        requests, scheduler, profiles=profiles, bs_t=bs_t, bs_n=bs_n, seed=seed
    )
    points = {}
    for size in sizes:
        report = simulate_cluster_sharded(
            requests,
            homogeneous_fleet(size, kind),
            scheduler,
            policy=policy,
            bs_t=bs_t,
            bs_n=bs_n,
            seed=seed,
            passes=passes,
        )
        points[str(size)] = {
            "throughput_rps": report.throughput_rps,
            "p50_latency_ms": report.latency_percentiles_ms["p50"],
            "p99_latency_ms": report.latency_percentiles_ms["p99"],
            "speedup_vs_single_chip": (
                report.throughput_rps / single.throughput_rps
                if single.throughput_rps
                else 0.0
            ),
            "energy_per_request_mj": report.energy_per_request_mj,
        }
    return {
        "mix": weights,
        "kind": kind,
        "policy": policy,
        "target_rho": rho,
        "arrival_rate_rps": rate,
        "single_chip": {
            "throughput_rps": single.throughput_rps,
            "p50_latency_ms": single.latency_percentiles_ms["p50"],
            "p99_latency_ms": single.latency_percentiles_ms["p99"],
        },
        "points": points,
    }


def experiment_cluster_routing_ablation(
    mix: str = "model2:0.5+model4:0.5",
    fleet: str = "dense_heavy:2+sparse_heavy:2",
    rho: float = 0.85,
    policies: str = "round_robin+least_work+sparsity",
    num_requests: int = 800,
    seed: int = 0,
    queue_capacity: int = 0,
    max_batch: int = 1,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "all",
) -> dict:
    """Cluster — routing-policy comparison at a fixed (heterogeneous) fleet.

    ``rho`` is offered load relative to the FLEET's aggregate capacity on
    the mix; the same stream is routed under each policy.  With the
    default mixed-sparsity mix on a dense-heavy + sparse-heavy fleet, the
    sparsity-aware policy routes each model to the chips whose core
    provisioning matches its trace sparsity.  ``queue_capacity=0`` means
    unbounded (no shedding).
    """
    from ..cluster import (
        POLICIES,
        AdmissionConfig,
        chip_config,
        fleet_capacity_rps,
        parse_fleet,
        simulate_cluster_sharded,
    )
    from ..serve import SchedulerConfig, parse_model_mix, request_profile

    weights = parse_model_mix(mix)
    fleet_spec = parse_fleet(fleet)
    names = [p.strip() for p in policies.split("+") if p.strip()]
    unknown = [p for p in names if p not in POLICIES]
    if not names or unknown:
        raise ValueError(f"bad policies {policies!r}; options {sorted(POLICIES)}")
    rate = rho * fleet_capacity_rps(fleet_spec, weights, bs_t, bs_n, seed, passes)
    requests = _serve_arrivals("poisson", num_requests, rate, weights, seed, 8.0)
    scheduler = SchedulerConfig(max_batch=max_batch, max_inflight=max_inflight)
    admission = AdmissionConfig(queue_capacity=queue_capacity or None)
    results = {}
    for name in names:
        report = simulate_cluster_sharded(
            requests,
            fleet_spec,
            scheduler,
            policy=name,
            admission=admission,
            bs_t=bs_t,
            bs_n=bs_n,
            seed=seed,
            passes=passes,
        )
        results[name] = {
            "throughput_rps": report.throughput_rps,
            "p50_latency_ms": report.latency_percentiles_ms["p50"],
            "p99_latency_ms": report.latency_percentiles_ms["p99"],
            "mean_latency_ms": report.latency_mean_ms,
            "shed": report.shed,
            "requests_per_chip": {
                name: chip.requests_served
                for name, chip in report.chips.items()
            },
        }
    model_profiles = {}
    for model in weights:
        latency_by_kind = {}
        share_by_kind = {}
        for kind in sorted({spec.kind for spec in fleet_spec.chips}):
            profile = request_profile(
                model, seed=seed, config=chip_config(kind, bs_t, bs_n),
                passes=passes,
            )
            latency_by_kind[kind] = profile.single_latency_s * 1e3
            share_by_kind[kind] = profile.sparse_core_share
        model_profiles[model] = {
            "single_latency_ms_by_kind": latency_by_kind,
            "sparse_core_share_by_kind": share_by_kind,
        }
    return {
        "mix": weights,
        "fleet": fleet,
        "target_rho": rho,
        "arrival_rate_rps": rate,
        "queue_capacity": queue_capacity or None,
        "models": model_profiles,
        "policies": results,
    }


def experiment_cluster_planet_scale(
    mix: str = "model4",
    chips: int = 1000,
    kind: str = "standard",
    shards: int = 8,
    window_ms: float = 0.0,
    policy: str = "least_work",
    shard_policy: str = "least_backlog",
    trace: str = "diurnal",
    num_requests: int = 4000,
    rho_peak: float = 0.7,
    period_s: float = 0.0,
    regions: str = "us:0.5@0.0+eu:0.3@0.33+apac:0.2@0.66",
    spike_factor: float = 4.0,
    slo_ms: float = 0.0,
    queue_capacity: int = 0,
    jobs: int = 1,
    seed: int = 0,
    max_batch: int = 1,
    max_inflight: int = 2,
    bs_t: int = 2,
    bs_n: int = 4,
    passes: str = "all",
    alerts: int = 1,
) -> dict:
    """Cluster — planet-scale sharded fleet under a trace-driven workload.

    A ``chips``-wide homogeneous fleet is partitioned into ``shards``
    independent engines coordinated in windows on the actor pool
    (``repro.cluster.simulate_cluster_sharded``), and driven by one of
    the trace workloads: ``poisson`` | ``diurnal`` (cosine day curve) |
    ``flash_crowd`` (rectangular spike) | ``regional`` (phase-shifted
    regional day curves).  ``rho_peak`` is offered load at the trace's
    PEAK rate relative to fleet aggregate capacity; ``slo_ms=0``
    auto-sets the SLO to 20x the mix's mean single-request latency.  The
    report carries overall and per-window SLO attainment; per-chip rows
    are aggregated by chip kind (a 10,000-chip run stays a small JSON).

    The streaming SLO monitor always runs (burn-rate alerts over the
    window stream as the coordinator merges each digest); ``alerts=1``
    additionally enables the operational detectors (queue growth, shed
    rate, saturation, latency drift) and surfaces every transition in
    the payload's ``alerts`` list — the record ``repro trace`` folds
    into the Perfetto view and ``run-all --alerts`` rolls up.
    """
    from ..cluster import (
        AdmissionConfig,
        ShardingConfig,
        auto_window_s,
        fleet_capacity_rps,
        homogeneous_fleet,
        simulate_cluster_sharded,
    )
    from ..serve import SchedulerConfig, arrival_trace, parse_model_mix

    weights = parse_model_mix(mix)
    fleet = homogeneous_fleet(chips, kind)
    capacity = fleet_capacity_rps(fleet, weights, bs_t, bs_n, seed, passes)
    peak_rate = rho_peak * capacity
    stream = arrival_trace(
        trace, num_requests, peak_rate, weights, seed,
        period_s=period_s, regions=regions, spike_factor=spike_factor,
    )
    span = stream[-1].arrival_s if stream else 0.0
    if slo_ms <= 0:
        mean_service_s = chips / capacity
        slo_ms = 20.0 * mean_service_s * 1e3
    window_s = auto_window_s(window_ms, span, 32)
    report = simulate_cluster_sharded(
        stream,
        fleet,
        SchedulerConfig(max_batch=max_batch, max_inflight=max_inflight),
        policy=policy,
        admission=AdmissionConfig(queue_capacity=queue_capacity or None),
        sharding=ShardingConfig(
            num_shards=shards, window_s=window_s, jobs=jobs,
            shard_policy=shard_policy,
        ),
        bs_t=bs_t,
        bs_n=bs_n,
        seed=seed,
        passes=passes,
        slo_ms=slo_ms,
        alerts=bool(alerts),
    )

    by_kind: dict[str, dict] = {}
    for chip in report.chips.values():
        entry = by_kind.setdefault(chip.kind, {
            "chips": 0,
            "requests_served": 0,
            "min_served": None,
            "max_served": 0,
            "dynamic_energy_mj": 0.0,
            "utilization_sums": {},
        })
        entry["chips"] += 1
        entry["requests_served"] += chip.requests_served
        entry["min_served"] = (
            chip.requests_served
            if entry["min_served"] is None
            else min(entry["min_served"], chip.requests_served)
        )
        entry["max_served"] = max(entry["max_served"], chip.requests_served)
        entry["dynamic_energy_mj"] += chip.dynamic_energy_mj
        for unit, value in chip.utilization.items():
            entry["utilization_sums"][unit] = (
                entry["utilization_sums"].get(unit, 0.0) + value
            )
    for entry in by_kind.values():
        sums = entry.pop("utilization_sums")
        entry["mean_utilization"] = {
            unit: total / entry["chips"] for unit, total in sums.items()
        }
        entry["mean_served"] = entry["requests_served"] / entry["chips"]
    return {
        "mix": weights,
        "kind": kind,
        "chips": chips,
        "trace": trace,
        "rho_peak": rho_peak,
        "capacity_rps": capacity,
        "peak_rate_rps": peak_rate,
        "trace_span_s": span,
        "sharding": {
            "num_shards": shards,
            "window_s": window_s,
            "num_windows": len(report.windows),
            "jobs": jobs,
            "shard_policy": shard_policy,
            "routing_policy": policy,
        },
        "served": report.served,
        "shed": report.shed,
        "throughput_rps": report.throughput_rps,
        "latency_ms": {
            "mean": report.latency_mean_ms,
            "max": report.latency_max_ms,
            **report.latency_percentiles_ms,
        },
        "queue_wait_mean_ms": report.queue_wait_mean_ms,
        "slo": report.slo,
        "energy_mj": {
            "dynamic": report.dynamic_energy_mj,
            "static": report.static_energy_mj,
            "per_request": report.energy_per_request_mj,
        },
        "autoscaler_events": len(report.scaling_events),
        "fleet_by_kind": by_kind,
        "windows": [window.to_dict() for window in report.windows],
        "alerts": [dict(alert) for alert in report.alerts],
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _register(experiments: tuple[Experiment, ...]) -> dict[str, Experiment]:
    registry = {}
    for experiment in experiments:
        if experiment.id in registry:
            raise ValueError(f"duplicate experiment id {experiment.id!r}")
        registry[experiment.id] = experiment
    return registry


EXPERIMENTS: dict[str, Experiment] = _register((
    Experiment(
        "table1", "Table 1", experiment_table1, cost="heavy",
        smoke_params={"epochs": 2},
        description="trained accuracy across network families",
    ),
    Experiment(
        "table2", "Table 2", experiment_table2,
        description="the Table-2 model zoo",
    ),
    Experiment(
        "fig3", "Fig. 3", experiment_fig3,
        description="FLOPs breakdown vs (N, D) and depth",
    ),
    Experiment(
        "fig5", "Fig. 5", experiment_fig5, cost="heavy",
        smoke_params={"epochs": 2},
        description="active-bundle distribution without vs with BSA",
    ),
    Experiment(
        "fig6", "Fig. 6", experiment_fig6,
        description="raw vs stratified workload density",
    ),
    Experiment(
        "fig8", "Fig. 8", experiment_fig8,
        description="ECP attention-score concentration",
    ),
    Experiment(
        "fig11", "Fig. 11", experiment_fig11, cost="medium",
        smoke_params={"models": "model4"},
        description="layerwise latency/energy ratios vs PTB",
    ),
    Experiment(
        "fig12", "Fig. 12", experiment_fig12, cost="heavy",
        smoke_params={"models": "model4"},
        description="end-to-end latency across five systems",
    ),
    Experiment(
        "fig13", "Fig. 13", experiment_fig13, cost="heavy",
        smoke_params={"models": "model4"},
        description="end-to-end energy across five systems",
    ),
    Experiment(
        "fig14", "Fig. 14", experiment_fig14,
        smoke_params={"models": "model4"},
        description="ECP threshold hardware sweep",
    ),
    Experiment(
        "fig15", "Fig. 15", experiment_fig15, cost="medium",
        smoke_params={"model": "model4"},
        description="stratification-threshold sweep",
    ),
    Experiment(
        "fig16", "Fig. 16", experiment_fig16, cost="heavy",
        smoke_params={"model": "model4"},
        description="TTB bundle-volume sweep",
    ),
    Experiment(
        "fig17", "Fig. 17", experiment_fig17,
        description="synthesized power/area breakdown",
    ),
    Experiment(
        "sec6.2-summary", "Sec. 6.2", experiment_sec62, cost="heavy",
        smoke_params={"models": "model4"},
        description="headline speedup/energy averages",
    ),
    Experiment(
        "sec6.4-hetero", "Sec. 6.4", experiment_sec64_hetero, cost="medium",
        smoke_params={"model": "model4"},
        description="heterogeneous cores vs dense-only ablation",
    ),
    Experiment(
        "sec6.4-attn", "Sec. 6.4", experiment_sec64_attn, cost="medium",
        smoke_params={"models": "model4"},
        description="attention-core comparison vs PTB",
    ),
    Experiment(
        "compiler_pass_ablation", "Compiler", experiment_compiler_pass_ablation,
        cost="medium",
        smoke_params={"model": "model4"},
        description="per-pass compiler ablation: makespan/energy of each"
        " optimization pass toggled off",
    ),
    Experiment(
        "dse_point", "DSE", experiment_dse_point,
        description="compile + engine-measure one chip design point",
    ),
    Experiment(
        "dse_pareto_frontier", "DSE", experiment_dse_pareto_frontier,
        cost="medium",
        smoke_params={"model": "model4", "budget": 6},
        description="Pareto search over Bishop chip configurations",
    ),
    Experiment(
        "dse_strategy_ablation", "DSE", experiment_dse_strategy_ablation,
        cost="medium",
        param_help={"budget": "candidates per strategy"},
        smoke_params={"budget": 5, "strategies": "random+evolutionary"},
        description="search-strategy comparison at a fixed budget",
    ),
    Experiment(
        "serve_latency_cdf", "Serving", experiment_serve_latency_cdf,
        cost="medium",
        smoke_params={"num_requests": 40},
        description="serving latency percentiles under an arrival stream",
    ),
    Experiment(
        "serve_batch_sweep", "Serving", experiment_serve_batch_sweep,
        cost="medium",
        smoke_params={"num_requests": 40, "batch_sizes": "1+4"},
        description="batching throughput/latency/energy trade-off",
    ),
    Experiment(
        "serve_continuous_batching", "Serving",
        experiment_serve_continuous_batching,
        cost="medium",
        param_help={
            "max_batch": "stage-group size limit",
            "max_inflight": "concurrent lanes",
        },
        smoke_params={"num_requests": 40},
        description="continuous vs static batching + degenerate conformance pin",
    ),
    Experiment(
        "serve_preemption_slo", "Serving", experiment_serve_preemption_slo,
        cost="medium",
        param_help={"max_inflight": "concurrent lanes"},
        smoke_params={"num_requests": 60},
        description="stage-boundary preemption: high-tier p99 vs FIFO"
        " at saturation, with per-resource work conservation",
    ),
    Experiment(
        "cluster_scaling_curve", "Cluster", experiment_cluster_scaling_curve,
        cost="medium",
        smoke_params={"num_requests": 60, "fleet_sizes": "1+2"},
        description="throughput + p50/p99 latency vs fleet size",
    ),
    Experiment(
        "cluster_routing_ablation", "Cluster", experiment_cluster_routing_ablation,
        cost="medium",
        param_help={"rho": "offered load vs fleet aggregate capacity"},
        smoke_params={"num_requests": 80, "policies": "round_robin+sparsity"},
        description="routing-policy comparison at a fixed heterogeneous fleet",
    ),
    Experiment(
        "cluster_multitenant_fairness", "Cluster",
        experiment_cluster_multitenant_fairness,
        cost="medium",
        param_help={
            "max_batch": "stage-group size limit (1: tenant-pure WFQ quanta)",
            "max_inflight": "concurrent lanes per chip",
        },
        smoke_params={"num_requests": 80},
        description="WFQ service shares vs declared tenant weights under"
        " saturation, with per-tenant report blocks",
    ),
    Experiment(
        "cluster_planet_scale", "Cluster", experiment_cluster_planet_scale,
        cost="heavy",
        param_help={
            "policy": "in-shard routing policy",
            "num_requests": "requests in the trace",
            "trace": "arrival trace: poisson | diurnal | flash_crowd | regional",
        },
        smoke_params={"chips": 64, "shards": 2, "num_requests": 240},
        description="sharded planet-scale fleet under trace-driven load"
        " with per-window SLO attainment and streaming alerts",
    ),
))


def get_experiment(name: str) -> Experiment:
    """Look up one registered experiment by id."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; options: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, **params: object) -> dict:
    """Run one registered experiment by id, with optional param overrides."""
    return get_experiment(name).run(**params)
