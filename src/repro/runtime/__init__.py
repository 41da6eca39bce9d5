"""Parallel experiment runtime: executor, result cache, artifact store.

``ExperimentRunner`` fans the experiment registry out over a process
pool with a content-addressed on-disk cache, so ``repro run-all`` re-runs
are near-free and every paper artifact lands under ``artifacts/`` with a
timing/cache manifest.  See docs/RUNTIME.md.
"""

from .artifacts import ArtifactStore, canonical_json, canonical_payload
from .cache import (
    CacheEntry,
    CacheEntryInfo,
    GcResult,
    ResultCache,
    StoreStats,
    cache_key,
    config_hash,
)
from .executor import ExperimentRunner, RunOutcome, RunSummary
from .sweep import expand_grid, parse_param_specs

__all__ = [
    "ArtifactStore",
    "CacheEntry",
    "CacheEntryInfo",
    "GcResult",
    "ExperimentRunner",
    "ResultCache",
    "RunOutcome",
    "RunSummary",
    "StoreStats",
    "cache_key",
    "canonical_json",
    "canonical_payload",
    "config_hash",
    "expand_grid",
    "parse_param_specs",
]
