"""Content-addressed on-disk result cache for experiment runs.

A cache entry is keyed by ``(experiment id, package code hash, config
hash)`` — the config hash covers the fully-resolved parameter dict, the
code hash covers every ``repro`` source file — so a re-run of an
unchanged experiment is a near-free disk read, while any code or parameter
change misses cleanly.

The on-disk layout, atomic writes, self-healing reads and gc are those of
:class:`repro.store.JsonStore`; this module adds the entry codec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..store import DECODE_ERRORS, GcResult, JsonStore, StoreStats
from .artifacts import canonical_json

__all__ = [
    "CacheEntry",
    "CacheEntryInfo",
    "GcResult",
    "ResultCache",
    "StoreStats",
    "cache_key",
    "config_hash",
]


def config_hash(params: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a resolved param dict."""
    text = json.dumps(params, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def cache_key(experiment_id: str, code_hash: str, cfg_hash: str) -> str:
    digest = hashlib.sha256()
    for part in (experiment_id, code_hash, cfg_hash):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    experiment: str
    params: dict
    code_hash: str
    config_hash: str
    result: object

    def payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "code_hash": self.code_hash,
            "config_hash": self.config_hash,
            "result": self.result,
        }


class ResultCache(JsonStore):
    """Directory of content-addressed experiment results."""

    name = "result"

    def encode(self, entry: CacheEntry) -> str:
        return canonical_json(entry.payload())

    def get(self, key: str, experiment_id: str | None = None) -> CacheEntry | None:
        """Load an entry, or ``None`` on miss *or* corruption (self-healing).

        An entry recorded for another experiment than ``experiment_id``
        is dropped as a miss.
        """

        def decode(raw) -> CacheEntry | None:
            entry = CacheEntry(
                experiment=raw["experiment"],
                params=raw["params"],
                code_hash=raw["code_hash"],
                config_hash=raw["config_hash"],
                result=raw["result"],
            )
            if experiment_id is not None and entry.experiment != experiment_id:
                return None
            return entry

        return self._read(key, decode)

    def list_entries(self) -> list["CacheEntryInfo"]:
        """Metadata of every entry, newest first (for ``repro cache ls``).

        Corrupted entries are listed too, as experiment ``"<corrupt>"``
        (``get()`` self-heals them on access; ``gc`` removes them when
        they age out of the keep window like any other entry).
        """
        infos = []
        for path, size, mtime in self.scan():
            experiment, params = "<corrupt>", {}
            try:
                raw = json.loads(path.read_text())
                experiment = str(raw["experiment"])
                raw_params = raw.get("params")
                params = raw_params if isinstance(raw_params, dict) else {}
            except FileNotFoundError:
                continue  # unlinked since the scan (concurrent gc)
            except DECODE_ERRORS:
                pass
            infos.append(CacheEntryInfo(
                path=path,
                key=path.stem,
                experiment=experiment,
                params=params,
                size_bytes=size,
                mtime=mtime,
            ))
        return infos


@dataclass(frozen=True)
class CacheEntryInfo:
    """Metadata of one on-disk cache entry (no result payload)."""

    path: Path
    key: str
    experiment: str
    params: dict
    size_bytes: int
    mtime: float
