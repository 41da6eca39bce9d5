"""Parameter schemas derived from function signatures.

A knob is declared once, as a keyword parameter with a default, on the
function that consumes it.  :func:`signature_params` turns that
signature into typed :class:`ParamSpec` entries: the kind is the type of
the default, a ``Literal[...]`` annotation supplies the allowed values,
and the help text comes from the one name → text table :data:`HELP`.
The experiment registry (``repro.harness.experiments``) validates
``--param`` overrides against these specs, and ``repro cluster``
generates its flags from them with :func:`add_flags`.

This module imports nothing from ``repro``, so every layer can use it.
"""

from __future__ import annotations

import argparse
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, get_args, get_origin

__all__ = [
    "HELP",
    "OVERRIDABLE_HELP",
    "ParamSpec",
    "add_flags",
    "signature_params",
]


@dataclass(frozen=True)
class ParamSpec:
    """One overridable parameter: its type, default, docs and choices."""

    kind: type
    default: bool | int | float | str
    help: str = ""
    choices: tuple[str, ...] | None = None

    def cast(self, value: object) -> bool | int | float | str:
        """``value`` as this parameter's kind; non-finite floats are rejected."""
        if isinstance(value, self.kind) and not (
            self.kind is int and isinstance(value, bool)
        ):
            result = value
        else:
            try:
                result = self.kind(value)  # type: ignore[call-arg]
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"expected {self.kind.__name__}, got {value!r}"
                ) from error
        if self.kind is float and not math.isfinite(result):
            raise ValueError(f"expected a finite float, got {value!r}")
        return result

    def parse_flag(self, text: str) -> bool | int | float | str:
        """:meth:`cast` as an argparse ``type``: a bad value is a usage
        error (exit 2) whose message names the flag."""
        try:
            return self.cast(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None


# Help for every parameter name, shared by all experiments and by
# `repro cluster`.  Names in OVERRIDABLE_HELP may carry per-function
# wording; every other name reads the same everywhere.
HELP: dict[str, str] = {
    "alerts": "run the detector rule engine (queue-growth, shed-rate,"
    " saturation, latency-drift) streaming in the shard coordinator,"
    " alongside the always-on burn-rate monitor (experiments: 1 = on;"
    " `repro cluster` writes INCIDENT_cluster.json)",
    "arrival": "arrival process: poisson | bursty; `repro cluster` also"
    " takes the planet-scale traces diurnal | flash_crowd | regional,"
    " with rho applied at the trace peak",
    "autoscale_max": "enable the autoscaler up to N chips (0 = off);"
    " replicas clone the fleet's first chip kind, and the auto window"
    " is its interval",
    "batch_sizes": "'+'-separated batch sizes",
    "bs_n": "bundle token extent BS_n",
    "bs_t": "bundle timestep extent BS_t",
    "budget": "searched candidate chips",
    "burst_factor": "burst rate multiplier",
    "chips": "fleet size (chips)",
    "dram_gbps": "chip DRAM bandwidth (GB/s); 76.8 = paper chip",
    "epochs": "training epochs",
    "fleet": "fleet spec, e.g. 'standard:4' or 'dense_heavy:2+sparse_heavy:2'",
    "fleet_size": "homogeneous fleet size",
    "fleet_sizes": "'+'-separated fleet sizes",
    "jobs": "shard worker processes (0 = one per core)",
    "kind": "chip kind of the homogeneous fleet",
    "max_batch": "same-model batching limit",
    "max_inflight": "concurrent inferences per chip",
    "mix": "model mix, e.g. 'model4' or 'model4:0.7+model2:0.3'",
    "model": "Table-2 model id",
    "models": "model ids, ','- or '+'-separated",
    "num_requests": "requests in the stream",
    "objectives": "'+'-separated frontier axes (see repro.dse.OBJECTIVES)",
    "passes": "compiler passes: all | none | '+'-joined subset of"
    " packing,stratify,ecp,schedule",
    "period_s": "diurnal/regional period (s); 0 = one cycle per trace",
    "point": "JSON design point over the default space (missing keys ="
    " paper defaults)",
    "policies": "'+'-separated policies",
    "policy": "routing policy: round_robin | least_work | sparsity",
    "priority_mix": "priority tiers 'tier:weight' '+'-joined, e.g."
    " '0:0.8+1:0.2'; higher tiers preempt at stage boundaries under"
    " continuous batching (empty = one tier)",
    "queue_capacity": "per-chip queue bound (0: unbounded)",
    "quota": "per-tenant outstanding bound (0: declared/unbounded)",
    "regions": "regional trace spec: name:weight@phase '+'-joined",
    "requests": "requests in the stream",
    "rho": "offered load vs single-chip capacity",
    "rho_peak": "offered load AT TRACE PEAK vs fleet capacity",
    "scheduler": "per-chip dispatch: auto (static, max_batch decides"
    " fifo/batch) | fifo (static, batch 1) | batch (static) | continuous"
    " (stage-boundary join/leave, priority preemption, per-tenant WFQ)",
    "seed": "base RNG seed (one seed fixes the workload and synthetic traces)",
    "shard_jobs": "shard worker processes (1 = inline; 0 = one per core)",
    "shard_policy": "cross-shard request routing: round_robin |"
    " least_backlog (within-shard routing is the policy)",
    "shards": "independent shard engines coordinated in windows"
    " (1 = the whole fleet on one engine)",
    "slo_ms": "latency SLO (ms) for the streaming attainment / error-budget"
    " / burn-rate report; 0 = 20x the mean single-request latency"
    " (`repro cluster`: 0 = off)",
    "slo_target": "SLO attainment target in (0,1)",
    "spike_factor": "flash-crowd rate multiplier",
    "strategies": "'+'-separated strategies",
    "strategy": "search strategy: grid | random | evolutionary",
    "tenants": "multi-tenant WFQ: 'name[:weight][@quota]' '+'-joined, e.g."
    " 'gold:3@64+silver:1' (empty = one tenant)",
    "theta_k": "ECP K-pruning threshold",
    "theta_q": "ECP Q-pruning threshold",
    "trace": "poisson | diurnal | flash_crowd | regional",
    "window_ms": "coordination window (ms); 0 = trace span / 32",
}

OVERRIDABLE_HELP = frozenset({
    "budget", "max_batch", "max_inflight", "num_requests", "objectives",
    "policy", "rho", "window_ms",
})


def signature_params(
    fn: Callable,
    help_overrides: Mapping[str, str] | None = None,
    *,
    kinds: tuple[type, ...] = (int, float, str),
    keyword_only: bool = False,
) -> dict[str, ParamSpec]:
    """The schema of ``fn``'s parameters, in signature order.

    With ``keyword_only`` only the parameters after ``*`` form the schema.
    Raises ``ValueError`` when a parameter has no default, its default is
    not one of ``kinds``, it has no help text, or ``help_overrides``
    names a parameter that is not overridable or not in the signature.
    """
    where = getattr(fn, "__qualname__", repr(fn))
    overrides = dict(help_overrides or {})
    bad = set(overrides) - OVERRIDABLE_HELP
    if bad:
        raise ValueError(
            f"{where}: help may be overridden only for"
            f" {sorted(OVERRIDABLE_HELP)}, not {sorted(bad)}"
        )
    specs: dict[str, ParamSpec] = {}
    for name, param in inspect.signature(fn, eval_str=True).parameters.items():
        if keyword_only and param.kind is not param.KEYWORD_ONLY:
            continue
        if param.default is param.empty:
            raise ValueError(f"{where}: parameter {name!r} has no default")
        kind = type(param.default)
        if kind not in kinds:
            raise ValueError(
                f"{where}: parameter {name!r} default {param.default!r} is"
                f" not one of {[k.__name__ for k in kinds]}"
            )
        text = overrides.pop(name, None) or HELP.get(name)
        if not text:
            raise ValueError(f"{where}: parameter {name!r} has no help text")
        choices = None
        if get_origin(param.annotation) is Literal:
            choices = get_args(param.annotation)
        specs[name] = ParamSpec(kind, param.default, text, choices)
    if overrides:
        raise ValueError(
            f"{where}: help overrides for unknown parameter(s) {sorted(overrides)}"
        )
    return specs


def add_flags(
    parser: argparse.ArgumentParser, specs: Mapping[str, ParamSpec]
) -> None:
    """One ``--kebab-name`` flag per spec: a ``bool`` (default False) is a
    bare switch, every other kind is parsed by :meth:`ParamSpec.parse_flag`."""
    for name, spec in specs.items():
        flag = "--" + name.replace("_", "-")
        if spec.kind is bool:
            parser.add_argument(flag, action="store_true", help=spec.help)
            continue
        parser.add_argument(
            flag, type=spec.parse_flag, default=spec.default,
            choices=spec.choices,
            metavar=None if spec.choices else spec.kind.__name__.upper(),
            help=spec.help,
        )
