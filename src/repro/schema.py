"""Parameter schemas derived from function signatures.

A knob is declared once, as a keyword parameter with a default, on the
function that consumes it.  :func:`signature_params` turns that
signature into typed :class:`ParamSpec` entries: the kind is the type of
the default, a ``Literal[...]`` annotation supplies the allowed values,
and the help text comes from the one name → text table :data:`HELP`.
The experiment registry (``repro.harness.experiments``) validates
``--param`` overrides against these specs, and every ``repro``
subcommand generates its arguments from its handler's signature with
:func:`add_signature`.

This module imports nothing from ``repro``, so every layer can use it.
"""

from __future__ import annotations

import argparse
import inspect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, Mapping, get_args, get_origin

__all__ = [
    "CLI_KINDS",
    "HELP",
    "OVERRIDABLE_HELP",
    "ParamSpec",
    "add_flags",
    "add_signature",
    "signature_params",
]

# The parameter kinds a command-line handler may declare.
CLI_KINDS = (bool, int, float, str, Path)


@dataclass(frozen=True)
class ParamSpec:
    """One overridable parameter: its type, default, docs and choices.

    An optional (``X | None = None``) parameter has default ``None``, a
    repeatable (``tuple[X, ...] = ()``) one a tuple default, and a
    keyword-only parameter without a default is ``required``; for these
    three ``kind`` is the annotation's ``X``.
    """

    kind: type
    default: bool | int | float | str | Path | tuple | None
    help: str = ""
    choices: tuple[str, ...] | None = None
    required: bool = False

    def cast(self, value: object) -> bool | int | float | str | Path:
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

    def parse_flag(self, text: str) -> bool | int | float | str | Path:
        """:meth:`cast` as an argparse ``type``: a bad value is a usage
        error (exit 2) whose message names the flag."""
        try:
            return self.cast(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None


# Help for every parameter name, shared by all experiments and every
# `repro` subcommand.  Names in OVERRIDABLE_HELP may carry per-function
# wording; every other name reads the same everywhere.
HELP: dict[str, str] = {
    "alerts": "run the detector rule engine (queue-growth, shed-rate,"
    " saturation, latency-drift) streaming in the shard coordinator,"
    " alongside the always-on burn-rate monitor (experiments: 1 = on;"
    " `repro cluster` writes INCIDENT_cluster.json); `repro run-all`"
    " records an alerts block in the manifest instead: registry health"
    " rules, failed experiments, and alerts fired inside simulated runs",
    "arrival": "arrival process: poisson | bursty; `repro cluster` also"
    " takes the planet-scale traces diurnal | flash_crowd | regional,"
    " with rho applied at the trace peak",
    "artifact": "cluster report JSON path, or an artifact id under"
    " --artifacts",
    "artifacts": "artifact/cache root (default: ./artifacts)",
    "autoscale_max": "enable the autoscaler up to N chips (0 = off);"
    " replicas clone the fleet's first chip kind, and the auto window"
    " is its interval",
    "batch": "proposal batch size (the parallelism grain)",
    "batch_sizes": "'+'-separated batch sizes",
    "bs_n": "bundle token extent BS_n",
    "bs_t": "bundle timestep extent BS_t",
    "budget": "searched candidate chips",
    "burst_factor": "burst rate multiplier",
    "chip": "chip kind: standard | sparse_heavy | dense_heavy",
    "chips": "fleet size (chips)",
    "critical_path": "extract the binding-resource chain (durations sum to"
    " the makespan) with per-resource blocking attribution",
    "diff": "diff self-times against a baseline trace (path or artifact"
    " id): localizes a regression to specific spans",
    "dram_gbps": "chip DRAM bandwidth (GB/s); 76.8 = paper chip",
    "dump": "write the program IR as JSON ('-' for stdout)",
    "epochs": "training epochs",
    "experiment": "experiment id (see `repro list`)",
    "export_fleet": "write frontier chips as cluster chip-kind profiles",
    "fleet": "fleet spec, e.g. 'standard:4' or 'dense_heavy:2+sparse_heavy:2'",
    "fleet_size": "homogeneous fleet size",
    "fleet_sizes": "'+'-separated fleet sizes",
    "force": "ignore and overwrite cached results",
    "jobs": "worker processes (0 = one per core)",
    "json": "print the full payload as JSON",
    "keep_latest": "number of most-recent entries to keep",
    "kind": "chip kind of the homogeneous fleet",
    "kinds_file": "register chip kinds from a JSON kinds file (e.g. a"
    " `repro dse --export-fleet` export) before parsing --fleet",
    "manifest": "read the metrics block out of a `run-all --trace`"
    " manifest instead of running an experiment",
    "max_batch": "same-model batching limit",
    "max_inflight": "concurrent inferences per chip",
    "mix": "model mix, e.g. 'model4' or 'model4:0.7+model2:0.3'",
    "model": "Table-2 model id (see `repro zoo`)",
    "models": "model ids, ','- or '+'-separated",
    "no_cache": "bypass the on-disk program cache",
    "num_requests": "requests in the stream",
    "objectives": "'+'-separated frontier axes (see repro.dse.OBJECTIVES)",
    "only": "comma-separated subset of experiment ids",
    "output": "also write the full JSON payload to this file",
    "param": "override one experiment parameter K=V (repeatable); `sweep`"
    " takes comma-separated values per axis, K=V1,V2,...",
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
    "scheduler": "per-chip dispatch: static (whole-program quantum;"
    " --max-batch 1 is FIFO) | continuous (stage-boundary join/leave,"
    " priority preemption, per-tenant WFQ)",
    "seed": "base RNG seed (one seed fixes the workload and synthetic traces)",
    "shard_jobs": "shard worker processes (1 = inline; 0 = one per core)",
    "shard_policy": "cross-shard request routing: round_robin |"
    " least_backlog (within-shard routing is the policy)",
    "self_time": "span-tree rollup: wall-clock total and self time per"
    " span name",
    "shards": "independent shard engines coordinated in windows"
    " (1 = the whole fleet on one engine)",
    "slo_ms": "latency SLO (ms) for the streaming attainment / error-budget"
    " / burn-rate report; 0 = 20x the mean single-request latency"
    " (`repro cluster`: 0 = off; `repro slo`: 0 = the artifact's)",
    "slo_target": "SLO attainment target in (0,1)",
    "smoke": "start from each experiment's cheap smoke params (CI)",
    "stats": "append a per-store summary line (result vs program cache)",
    "spike_factor": "flash-crowd rate multiplier",
    "strategies": "'+'-separated strategies",
    "strategy": "search strategy: grid | random | evolutionary",
    "target": "SLO attainment target in (0,1); 0 = the artifact's, else"
    " 0.99",
    "tenants": "multi-tenant WFQ: 'name[:weight][@quota]' '+'-joined, e.g."
    " 'gold:3@64+silver:1' (empty = one tenant)",
    "theta_k": "ECP K-pruning threshold",
    "theta_q": "ECP Q-pruning threshold",
    "top": "rows to print per table",
    "trace": "run with telemetry on and write a Chrome trace JSON"
    " (./TRACE_<name>.json; `run-all`: trace.json under the artifact root,"
    " plus the metrics registry in the manifest)",
    "window_ms": "coordination window (ms); 0 = trace span / 32",
}

OVERRIDABLE_HELP = frozenset({
    "budget", "max_batch", "max_inflight", "num_requests", "objectives",
    "output", "policy", "rho", "target", "trace", "window_ms",
})


def _kind(annotation: object, default: object) -> object:
    """A parameter's value type: its default's, or for a ``None`` default
    and a tuple default the ``X`` of ``X | None`` / ``tuple[X, ...]``."""
    if default is None or isinstance(default, tuple):
        args = [a for a in get_args(annotation) if a not in (type(None), ...)]
        return args[0] if args else annotation
    return Path if isinstance(default, Path) else type(default)


def signature_params(
    fn: Callable,
    help_overrides: Mapping[str, str] | None = None,
    *,
    kinds: tuple[type, ...] = (int, float, str),
    keyword_only: bool = False,
) -> dict[str, ParamSpec]:
    """The schema of ``fn``'s parameters, in signature order.

    With ``keyword_only`` only the parameters after ``*`` form the schema.
    Raises ``ValueError`` when a parameter before ``*`` has no default, a
    parameter's kind is not one of ``kinds``, it has no help text, or
    ``help_overrides`` names a parameter that is not overridable or not in
    the signature.
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
        text = overrides.pop(name, None) or HELP.get(name)
        keyword = param.kind is param.KEYWORD_ONLY
        if keyword_only and not keyword:
            continue
        required = param.default is param.empty
        if required and not keyword:
            raise ValueError(f"{where}: parameter {name!r} has no default")
        default = None if required else param.default
        kind = _kind(param.annotation, default)
        if kind not in kinds:
            raise ValueError(
                f"{where}: parameter {name!r} default {default!r} is"
                f" not one of {[k.__name__ for k in kinds]}"
            )
        if not text:
            raise ValueError(f"{where}: parameter {name!r} has no help text")
        choices = None
        if get_origin(param.annotation) is Literal:
            choices = get_args(param.annotation)
        specs[name] = ParamSpec(kind, default, text, choices, required)
    if overrides:
        raise ValueError(
            f"{where}: help overrides for unknown parameter(s) {sorted(overrides)}"
        )
    return specs


def add_flags(
    parser: argparse.ArgumentParser, specs: Mapping[str, ParamSpec]
) -> None:
    """One ``--kebab-name`` flag per spec: a ``bool`` (default False) is a
    bare switch, a tuple default a repeatable flag, and every value is
    parsed by :meth:`ParamSpec.parse_flag`."""
    for name, spec in specs.items():
        flag = "--" + name.replace("_", "-")
        if spec.kind is bool:
            parser.add_argument(flag, action="store_true", help=spec.help)
            continue
        repeated = isinstance(spec.default, tuple)
        parser.add_argument(
            flag, type=spec.parse_flag,
            action="append" if repeated else "store",
            default=list(spec.default) if repeated else spec.default,
            required=spec.required, choices=spec.choices,
            metavar=None if spec.choices else spec.kind.__name__.upper(),
            help=spec.help,
        )


def add_signature(
    parser: argparse.ArgumentParser,
    fn: Callable,
    help_overrides: Mapping[str, str] | None = None,
) -> None:
    """``fn``'s parameters as ``parser``'s arguments: each one before ``*``
    a positional (optional when it has a default), each keyword-only one a
    flag (:func:`add_flags`)."""
    overrides = help_overrides or {}
    specs = signature_params(fn, overrides, kinds=CLI_KINDS, keyword_only=True)
    for name, param in inspect.signature(fn).parameters.items():
        if param.kind is not param.KEYWORD_ONLY:
            optional = param.default is not param.empty
            parser.add_argument(
                name, nargs="?" if optional else None,
                default=param.default if optional else None,
                help=overrides.get(name) or HELP[name],
            )
    add_flags(parser, specs)
