"""Content-addressed cache of compiled programs.

A compiled :class:`~repro.compiler.ir.Program` is a pure function of
``(model, chip configuration, pass configuration, ECP thresholds, trace
seed, compiler source)``, so it can be content-addressed
exactly like the runtime's experiment results: the cache key is the
SHA-256 of that tuple's canonical JSON, with the package source hash
standing in for the compiler version (any source edit invalidates
cleanly).

Two layers back the cache:

* an in-process memory map — repeated :func:`compile_model` calls inside
  one simulation (every request of a serving run, every chip of a fleet)
  hit it for free;
* an on-disk JSON store under ``artifacts/programs`` (override with the
  ``REPRO_PROGRAM_CACHE`` environment variable; ``off`` disables) — worker
  *processes* of ``repro run-all``/``sweep`` reuse programs compiled by
  earlier runs instead of re-running the numpy core models, which is
  where the serving experiments' wall-clock win comes from.

The disk layer is a :class:`repro.store.JsonStore` — the same layout,
atomic writes, self-healing reads and gc as the runtime's result cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

from .. import obs
from ..algo.ecp import ECPConfig
from ..arch.config import BishopConfig
from ..arch.energy import EnergyModel
from ..store import JsonStore, package_code_hash
from .ir import Program
from .passes import PassConfig, compile_trace

__all__ = [
    "ProgramCache",
    "compile_model",
    "default_program_cache",
    "package_code_hash",
    "program_key",
]


def program_key(
    model: str,
    config: BishopConfig,
    passes: PassConfig,
    seed: int = 0,
    ecp: ECPConfig | None = None,
    energy: EnergyModel | None = None,
) -> str:
    """Cache key: (model, chip config, pass config, ECP, energy, seed,
    code).

    ``energy=None`` keys as the default :class:`EnergyModel` — the stage
    annotations bake in per-event energies, so a non-default model must
    miss entries compiled under the default one.
    """
    payload = {
        "model": model,
        "chip": asdict(config),
        "passes": passes.spec(),
        "seed": int(seed),
        "ecp": (
            {"theta_q": ecp.theta_q, "theta_k": ecp.theta_k}
            if ecp is not None
            else None
        ),
        "energy": asdict(energy if energy is not None else EnergyModel()),
        "code": package_code_hash(),
    }
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


class ProgramCache(JsonStore):
    """Memory + disk cache of compiled programs.

    ``root=None`` keeps the cache memory-only (tests, throwaway configs);
    a path enables the cross-process disk layer.

    The package source hash in every key means a source edit orphans all
    prior disk entries (they can never hit again); :meth:`gc` reclaims
    them by recency, and ``repro cache gc --keep-latest N`` applies it
    alongside the result cache.
    """

    name = "program"

    def __init__(self, root: Path | str | None = None):
        super().__init__(root)
        self._memory: dict[str, Program] = {}

    def encode(self, program: Program) -> str:
        return json.dumps(program.to_dict(), sort_keys=True, default=float)

    def get(self, key: str) -> Program | None:
        program = self._memory.get(key)
        if program is not None:
            obs.inc("cache.program.hit")
            obs.inc("cache.program.hit_memory")
            return program
        program = self._read(key, Program.from_dict)
        if program is not None:
            self._memory[key] = program
            obs.inc("cache.program.hit_disk")
        return program

    def put(self, key: str, program: Program) -> Path | None:
        self._memory[key] = program
        return super().put(key, program)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or super().__contains__(key)


_DEFAULT_CACHE: ProgramCache | None = None


def default_program_cache() -> ProgramCache:
    """The process-wide cache; disk root from ``REPRO_PROGRAM_CACHE``
    (default ``artifacts/programs``; ``0``/``off``/``none`` → memory-only)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        raw = os.environ.get("REPRO_PROGRAM_CACHE", "")
        if raw.strip().lower() in ("0", "off", "none", "disabled"):
            _DEFAULT_CACHE = ProgramCache(None)
        elif raw.strip():
            _DEFAULT_CACHE = ProgramCache(Path(raw))
        else:
            _DEFAULT_CACHE = ProgramCache(Path("artifacts") / "programs")
    return _DEFAULT_CACHE


def compile_model(
    model: str,
    config: BishopConfig | None = None,
    *,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    ecp: ECPConfig | None = None,
    passes: "PassConfig | str | None" = None,
    energy: EnergyModel | None = None,
    cache: ProgramCache | None = None,
) -> Program:
    """Compile one Table-2 zoo model (cache-backed).

    Without an explicit ``config``, the chip is the standard serving
    configuration at the given bundle shape
    (:func:`repro.serve.profiles.profile_config`).  The returned program
    may come from the cache, in which case its stages carry no analytic
    reports — everything the engine needs is in the IR.
    """
    # Imported lazily: the serve/harness layers sit above the compiler in
    # the package graph (serve itself compiles through this module).
    from ..harness.synthetic import PROFILES, synthetic_trace
    from ..model import model_config
    from ..serve.profiles import profile_config

    if model not in PROFILES:
        raise ValueError(f"unknown model {model!r}; options {sorted(PROFILES)}")
    if config is None:
        config = profile_config(bs_t, bs_n)
    pass_config = PassConfig.parse(passes)
    cache = cache if cache is not None else default_program_cache()
    key = program_key(model, config, pass_config, seed=seed, ecp=ecp, energy=energy)
    with obs.span("compile.model", cat="compile", model=model) as span:
        program = cache.get(key)
        if program is not None:
            span.set(cache="hit")
            return program
        span.set(cache="miss")
        trace = synthetic_trace(
            model_config(model), PROFILES[model], config.bundle_spec, seed=seed
        )
        program = compile_trace(
            trace,
            config,
            energy=energy,
            ecp=ecp,
            passes=pass_config,
            meta={"seed": int(seed), "cache_key": key},
        )
        cache.put(key, program)
        return program
