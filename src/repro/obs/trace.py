"""Tracing spans: nestable, thread-safe, Perfetto-exportable.

The tracer records *spans* — named intervals with monotonic timestamps,
a category, key/value attributes, and an explicit parent — into an
in-memory buffer.  A finished buffer serializes to Chrome trace-event
JSON (``{"traceEvents": [...]}``) which https://ui.perfetto.dev and
``chrome://tracing`` load directly.

Design constraints (see docs/OBSERVABILITY.md):

* **Off by default, near-zero disabled overhead.**  ``span(...)`` when
  tracing is disabled returns a single cached null context manager —
  one module-level bool check, no allocation, no timestamp read.
* **Thread-safe.**  Span nesting is tracked per-thread
  (``threading.local``); the finished-span buffer append holds a lock.
* **Process-safe.**  Worker processes enable themselves from the
  ``REPRO_TRACE`` environment variable, record into their own buffer,
  and ship a picklable snapshot back for the parent to :func:`ingest`.
  On Linux ``time.perf_counter_ns`` reads the shared boot-relative
  monotonic clock, so parent and worker timestamps share one timeline.
* **Deterministic structure.**  Span names, categories, nesting, and
  attributes are a pure function of the work performed; only
  timestamps vary between runs (the determinism tests rely on this).

This module is stdlib-only by design — it must be importable from every
layer (runtime, compiler, engine, serve, cluster) without cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "Tracer",
    "TRACE_ENV",
    "TRACE_LIMIT_ENV",
    "tracer",
]

TRACE_ENV = "REPRO_TRACE"
TRACE_LIMIT_ENV = "REPRO_TRACE_LIMIT"

_TRUTHY = ("1", "on", "true", "yes")
_FALSY = ("", "0", "off", "false", "no")


def _env_flag(name: str) -> bool:
    """Strictly parse an on/off environment variable.

    An unrecognized value raises immediately with the accepted
    spellings, instead of silently falling through to the default.
    """
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError(
        f"{name}={raw!r}: expected one of "
        f"{'|'.join(_TRUTHY)} (on) or {'|'.join(v for v in _FALSY if v)} (off)"
    )


def _env_int(name: str) -> int | None:
    """Strictly parse a non-negative integer environment variable.

    Unset, empty, or ``0`` mean "no limit" (``None``); anything that is
    not a non-negative integer raises, mirroring :func:`_env_flag`.
    """
    raw = os.environ.get(name, "")
    value = raw.strip()
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        parsed = -1
    if parsed < 0:
        raise ValueError(
            f"{name}={raw!r}: expected a non-negative integer span cap"
            " (0 or unset = unlimited)"
        )
    return parsed or None


class _NullSpan:
    """The disabled-path span: a no-op context manager, cached once."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        """Attribute setter that drops everything (mirrors _LiveSpan)."""


_NULL_SPAN = _NullSpan()


@dataclass
class SpanRecord:
    """One finished span, as stored in the buffer (picklable)."""

    name: str
    cat: str
    start_ns: int
    end_ns: int
    pid: int
    tid: int
    depth: int
    parent: str | None
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "parent": self.parent,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=payload["name"],
            cat=payload["cat"],
            start_ns=int(payload["start_ns"]),
            end_ns=int(payload["end_ns"]),
            pid=int(payload["pid"]),
            tid=int(payload["tid"]),
            depth=int(payload["depth"]),
            parent=payload.get("parent"),
            args=dict(payload.get("args") or {}),
        )


class _LiveSpan:
    """An open span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_ns", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self.name)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end_ns = time.perf_counter_ns()
        stack = self._tracer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self._tracer._record(
            SpanRecord(
                name=self.name,
                cat=self.cat,
                start_ns=self._start_ns,
                end_ns=end_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=self._depth,
                parent=self._parent,
                args=self.args,
            )
        )

    def set(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self.args.update(attrs)


class Tracer:
    """Thread-safe span buffer with Chrome trace-event export."""

    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque()
        self._limit: int | None = None
        self.dropped = 0
        self._local = threading.local()

    # -- per-thread nesting ------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: SpanRecord) -> None:
        overflowed = False
        with self._lock:
            self._spans.append(span)
            if self._limit is not None and len(self._spans) > self._limit:
                self._spans.popleft()          # ring buffer: drop oldest
                self.dropped += 1
                overflowed = True
        if overflowed:
            # Deferred import: metrics imports nothing from here, so the
            # edge stays one-way; guarded so a bare tracer (registry off)
            # still just counts locally.
            try:
                from .metrics import registry
            except ImportError:  # pragma: no cover - stdlib-only fallback
                return
            if registry.active:
                registry.inc("trace.dropped")

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        self.active = True

    def disable(self) -> None:
        self.active = False

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
        self.dropped = 0
        self._local = threading.local()

    def set_limit(self, limit: int | None) -> None:
        """Cap the span buffer (``None``/``0`` = unlimited).

        When the buffer is over a newly-set cap, the oldest spans are
        dropped immediately and counted in :attr:`dropped`.
        """
        if limit is not None and limit < 0:
            raise ValueError("trace limit must be non-negative")
        with self._lock:
            self._limit = limit or None
            if self._limit is not None:
                while len(self._spans) > self._limit:
                    self._spans.popleft()
                    self.dropped += 1

    @property
    def limit(self) -> int | None:
        return self._limit

    def enable_from_env(self) -> bool:
        """Enable iff ``REPRO_TRACE`` is set truthy (worker-side hook).

        Also applies the ``REPRO_TRACE_LIMIT`` span cap — parsed
        unconditionally so an invalid value fails fast even when
        tracing stays off.
        """
        limit = _env_int(TRACE_LIMIT_ENV)
        if _env_flag(TRACE_ENV):
            self.active = True
            self.set_limit(limit)
        return self.active

    # -- recording ---------------------------------------------------------
    def span(self, name: str, cat: str = "repro", **attrs):
        """A context manager timing ``name``; no-op while disabled."""
        if not self.active:
            return _NULL_SPAN
        return _LiveSpan(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "repro", **attrs) -> None:
        """A zero-duration marker (rendered as an arrow/tick in Perfetto)."""
        if not self.active:
            return
        now = time.perf_counter_ns()
        stack = self._stack()
        self._record(
            SpanRecord(
                name=name,
                cat=cat,
                start_ns=now,
                end_ns=now,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=len(stack),
                parent=stack[-1] if stack else None,
                args=attrs,
            )
        )

    # -- inspection / transport --------------------------------------------
    @property
    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def snapshot(self) -> list[dict]:
        """Picklable/JSON-able copy of the buffer (for worker shipping)."""
        return [span.to_dict() for span in self.spans]

    def ingest(self, snapshot: list[dict]) -> int:
        """Merge a worker's :meth:`snapshot` into this buffer."""
        records = [SpanRecord.from_dict(payload) for payload in snapshot]
        with self._lock:
            self._spans.extend(records)
            if self._limit is not None:
                while len(self._spans) > self._limit:
                    self._spans.popleft()
                    self.dropped += 1
        return len(records)

    def structure(self) -> list[tuple]:
        """Timestamp-free view for determinism tests.

        Spans are keyed on ``(name, cat, depth, parent, sorted(args))`` in
        recording order — everything but the clock readings.
        """
        return [
            (
                span.name,
                span.cat,
                span.depth,
                span.parent,
                tuple(sorted(span.args.items())),
            )
            for span in self.spans
        ]

    # -- export ------------------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """The buffer as Chrome trace-event dicts (``ph: "X"`` complete).

        Timestamps are rebased so the earliest span starts at t=0 and
        converted to microseconds (the trace-event unit).
        """
        spans = self.spans
        if not spans:
            return []
        base_ns = min(span.start_ns for span in spans)
        events: list[dict] = []
        seen_threads: set[tuple[int, int]] = set()
        for span in spans:
            if (span.pid, span.tid) not in seen_threads:
                seen_threads.add((span.pid, span.tid))
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": span.pid,
                        "tid": span.tid,
                        "args": {"name": f"thread-{len(seen_threads)}"},
                    }
                )
            event = {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": (span.start_ns - base_ns) / 1000.0,
                "dur": (span.end_ns - span.start_ns) / 1000.0,
                "pid": span.pid,
                "tid": span.tid,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return events

    def chrome_trace(self, extra_events: list[dict] | None = None) -> dict:
        """A complete Perfetto-loadable trace document."""
        events = self.chrome_events()
        pids = sorted({e["pid"] for e in events if "pid" in e})
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro wall-clock (pid {pid})"},
            }
            for pid in pids
        ]
        return {
            "traceEvents": meta + events + list(extra_events or []),
            "displayTimeUnit": "ms",
        }

    def write(self, path, extra_events: list[dict] | None = None) -> dict:
        """Serialize :meth:`chrome_trace` to ``path``; returns the payload."""
        payload = self.chrome_trace(extra_events)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        return payload


#: The process-global tracer every ``obs.span(...)`` call records into.
tracer = Tracer()
