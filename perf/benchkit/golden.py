"""Committed output digests: storage and comparison.

``perf/golden/<workload>.json`` maps a seed (as a string) to the digests of
that seed's first timed operations, in operation order.  Floats must match
to a relative 1e-9 and everything else exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = [
    "GOLDEN_DIR",
    "REL_TOL",
    "compare_digest",
    "load_all",
    "load_goldens",
    "save_goldens",
]

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
REL_TOL = 1e-9


def load_all(workload: str) -> dict[str, list[dict]]:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def load_goldens(workload: str, seed: int) -> list[dict]:
    """The digests committed for ``(workload, seed)``; empty when unverified."""
    return load_all(workload).get(str(int(seed)), [])


def save_goldens(workload: str, by_seed: dict[str, list[dict]]) -> Path:
    path = GOLDEN_DIR / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    # One line per seed keeps the diff of a regeneration readable.
    lines = [
        f"{json.dumps(seed)}: {json.dumps(by_seed[seed], separators=(',', ':'))}"
        for seed in sorted(by_seed, key=int)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return path


def compare_digest(expected, actual, path: str = "") -> list[str]:
    """Differences between two digests; empty when they match."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path or '.'}: keys {sorted(actual)} != {sorted(expected)}"]
        errors = []
        for key in expected:
            errors += compare_digest(expected[key], actual[key], f"{path}.{key}")
        return errors
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        errors = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            errors += compare_digest(e, a, f"{path}[{i}]")
        return errors
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
            if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
                return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
