"""Content-addressed JSON store: the on-disk layer of every repro cache.

The experiment result cache (:class:`repro.runtime.cache.ResultCache`)
and the compiled-program cache (:class:`repro.compiler.cache.ProgramCache`)
are both :class:`JsonStore` subclasses that add only their entry codec.
The contract — layout, atomic put, self-healing read, gc, counters — is
specified in docs/RUNTIME.md, "The JSON store".

This module imports nothing from ``repro`` but :mod:`repro.obs`, so the
compiler and the runtime both build on it without an import cycle.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, TypeVar

from . import obs

__all__ = [
    "DECODE_ERRORS",
    "GcResult",
    "JsonStore",
    "StoreStats",
    "TMP_ORPHAN_AGE_S",
    "atomic_write_text",
    "package_code_hash",
]

# A .tmp this old cannot be a write in flight; gc may reclaim it.
TMP_ORPHAN_AGE_S = 60.0

# What a decode of a damaged entry raises (JSONDecodeError and
# UnicodeDecodeError are ValueErrors).
DECODE_ERRORS = (ValueError, KeyError, TypeError)

T = TypeVar("T")


@lru_cache(maxsize=1)
def package_code_hash() -> str:
    """SHA-256 over every ``repro`` source file.

    Experiments and compiled programs compute through the whole package
    (models, simulator cores, baselines, training), so both caches key on
    it and any source edit invalidates them.
    """
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parent
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` via a sibling ``.tmp`` and a rename.

    Readers see the old file or the new one, never a torn one.  A write
    that raises removes its ``.tmp``; a killed one leaves it for gc.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class GcResult:
    """Outcome of one store garbage collection."""

    kept: int
    removed: int
    freed_bytes: int


@dataclass(frozen=True)
class StoreStats:
    """Shape of one store (``repro cache ls --stats``)."""

    store: str
    entries: int
    total_bytes: int


class JsonStore:
    """A directory of JSON entries addressed by hex key.

    Subclasses set :attr:`name` (the counter namespace) and implement
    :meth:`encode`.  ``root=None`` is a store without a disk: reads miss,
    puts write nothing, and gc/stats see no entries.
    """

    name = "store"

    def __init__(self, root: Path | str | None):
        self.root = Path(root) if root is not None else None

    def path_for(self, key: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        path = self.path_for(key)
        return path is not None and path.is_file()

    def _count(self, event: str, amount: int = 1) -> None:
        obs.inc(f"cache.{self.name}.{event}", amount)

    def encode(self, value) -> str:
        """The entry text for ``value``."""
        raise NotImplementedError

    def put(self, key: str, value) -> Path | None:
        """Store ``value`` under ``key``; the entry path, if on disk."""
        self._count("put")
        path = self.path_for(key)
        if path is not None:
            atomic_write_text(path, self.encode(value))
        return path

    def _read(self, key: str, decode: Callable[[object], T | None]) -> T | None:
        """Decode the entry at ``key``, or ``None`` on a miss.

        ``decode`` receives the parsed JSON.  If it raises one of
        :data:`DECODE_ERRORS` the entry is corrupt; if it returns ``None``
        the entry is well-formed but does not belong under ``key``.
        Either way the entry is deleted so the next put rewrites it.
        """
        path = self.path_for(key)
        if path is None:
            self._count("miss")
            return None
        try:
            value = decode(json.loads(path.read_text()))
        except FileNotFoundError:
            self._count("miss")
            return None
        except DECODE_ERRORS:
            self._count("corrupt")
            value = None
        if value is None:
            path.unlink(missing_ok=True)
            self._count("miss")
            return None
        self._count("hit")
        return value

    def _stat(self, pattern: str) -> list[tuple[Path, int, float]]:
        """(path, size, mtime) of every file matching ``pattern``.

        Files unlinked between glob and stat (a concurrent gc) are skipped.
        """
        found = []
        for path in self.root.glob(pattern) if self.root is not None else ():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            found.append((path, stat.st_size, stat.st_mtime))
        return found

    def scan(self) -> list[tuple[Path, int, float]]:
        """(path, size, mtime) of every entry, newest first — stat only.

        Ties on mtime break by path for a deterministic order.
        """
        return sorted(self._stat("*/*.json"), key=lambda e: (-e[2], str(e[0])))

    def entry_count(self) -> int:
        return len(self.scan())

    def gc(self, keep_latest: int) -> GcResult:
        """Delete all but the ``keep_latest`` most recent entries.

        Victims are picked from the stat-only scan.  Stale ``.tmp``
        orphans of crashed puts are reclaimed too (a fresh one may be a
        write in flight), and empty shard directories are pruned.
        """
        if keep_latest < 0:
            raise ValueError("keep_latest must be >= 0")
        entries = self.scan()
        cutoff = time.time() - TMP_ORPHAN_AGE_S
        orphans = [tmp for tmp in self._stat("*/*.tmp") if tmp[2] < cutoff]
        doomed = entries[keep_latest:] + orphans
        for path, _, _ in doomed:
            path.unlink(missing_ok=True)
        for shard in self.root.glob("*") if self.root is not None else ():
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass  # non-empty, or a concurrent writer repopulated it
        self._count("evict", len(doomed))
        return GcResult(
            kept=min(keep_latest, len(entries)),
            removed=len(doomed),
            freed_bytes=sum(size for _, size, _ in doomed),
        )

    def stats(self) -> StoreStats:
        """Entry count and total bytes (stat only), also set as gauges."""
        entries = self.scan()
        stats = StoreStats(
            store=self.name,
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
        )
        obs.set_gauge(f"cache.{self.name}.entries", stats.entries)
        obs.set_gauge(f"cache.{self.name}.bytes", stats.total_bytes)
        return stats
