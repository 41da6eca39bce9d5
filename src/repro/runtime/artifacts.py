"""JSON artifact store: one canonical file per experiment plus a manifest.

Layout (under the store root, ``artifacts/`` by default)::

    artifacts/
      <experiment-id>.json     canonical JSON result of the experiment
      manifest.json            timings + cache hit/miss for the last run-all
      sweeps/<id>.json         parameter-sweep results (one file per sweep)
      cache/...                result cache (see :mod:`repro.runtime.cache`)

Artifacts are written through :func:`canonical_json` so a cached re-run
produces byte-identical files to a fresh run, and atomically (temp file +
rename) so an interrupted run leaves the previous file intact.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..store import atomic_write_text

__all__ = ["ArtifactStore", "canonical_json", "canonical_payload"]


def canonical_json(payload: object) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, numpy-safe."""
    return json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"


def canonical_payload(payload: object) -> object:
    """Round-trip ``payload`` through JSON, coercing numpy scalars to floats.

    Executor results pass through this before caching so that a cache hit
    replays exactly the object a fresh run would have produced.
    """
    return json.loads(json.dumps(payload, default=float))


class ArtifactStore:
    """Writes experiment results and the run manifest under one root."""

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_for(self, experiment_id: str) -> Path:
        return self.root / f"{experiment_id}.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST_NAME

    def sweep_path(self, experiment_id: str) -> Path:
        return self.root / "sweeps" / f"{experiment_id}.json"

    @staticmethod
    def _write(path: Path, payload: object) -> Path:
        atomic_write_text(path, canonical_json(payload))
        return path

    def write(self, experiment_id: str, result: object) -> Path:
        return self._write(self.path_for(experiment_id), result)

    def write_sweep(self, experiment_id: str, payload: object) -> Path:
        return self._write(self.sweep_path(experiment_id), payload)

    def write_manifest(self, manifest: dict) -> Path:
        return self._write(self.manifest_path, manifest)

    def read(self, experiment_id: str) -> object:
        return json.loads(self.path_for(experiment_id).read_text())
