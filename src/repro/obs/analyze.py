"""Offline trace analysis: critical paths, self-time rollups, diffs.

Three questions this module answers about a finished run:

1. **What bounds the makespan?**  :func:`critical_path` walks an
   :class:`~repro.arch.engine.timeline.EngineRun` timeline *backward*
   from the makespan, at each point jumping to a resource hold that was
   still busy — producing a chain of (resource, interval) segments that
   tile ``[0, makespan]`` exactly.  Segment durations therefore sum to
   the makespan to machine precision (an acceptance criterion, tested
   across the model zoo on the closed form and on the event replay),
   and grouping segments by resource yields *blocking attribution*: the
   share of end-to-end time each resource was the binding constraint —
   Bishop's contention argument, computed from telemetry instead of
   asserted.
2. **Where did the wall-clock go?**  :func:`self_time` reconstructs the
   span tree of a Chrome trace and charges each span its *self* time
   (duration minus children), rolled up per span name.
3. **What changed?**  :func:`diff_traces` joins two self-time rollups
   by span name and ranks the deltas, localizing a regression between
   two traced runs (``repro trace`` on the parent and on the change) to
   the spans that actually slowed down.

Everything duck-types via :func:`repro.obs.convert._get`: live
``EngineRun``/``TimelineEntry`` objects, their ``to_dict`` payloads,
full experiment artifacts, and raw ``{"traceEvents": [...]}`` documents
all work.  No engine imports here — the engine imports :mod:`repro.obs`,
so this module stays one-way downstream of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .convert import _get

__all__ = [
    "CriticalPath",
    "PathSegment",
    "critical_path",
    "critical_path_trace",
    "diff_traces",
    "find_timelines",
    "self_time",
]

#: Pseudo-resource for intervals no timeline entry covers (dependency
#: stalls / inter-batch gaps).  Real engine runs are work-conserving, so
#: idle segments flag modeling gaps rather than normal behavior.
IDLE = "(idle)"


@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path: ``resource`` binding over an interval."""

    resource: str
    label: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "resource": self.resource,
            "label": self.label,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The extracted path plus per-resource blocking attribution."""

    makespan_s: float
    segments: tuple[PathSegment, ...]

    @property
    def total_s(self) -> float:
        """Sum of segment durations — equals ``makespan_s`` exactly."""
        return math.fsum(seg.duration_s for seg in self.segments)

    def blocking_s(self) -> dict[str, float]:
        """Per-resource time on the path (includes ``(idle)`` if any)."""
        totals: dict[str, list[float]] = {}
        for seg in self.segments:
            totals.setdefault(seg.resource, []).append(seg.duration_s)
        return {name: math.fsum(parts) for name, parts in sorted(totals.items())}

    def blocking_shares(self) -> dict[str, float]:
        """Blocking attribution normalized to sum to 1 (empty path: {})."""
        totals = self.blocking_s()
        denom = math.fsum(totals.values())
        if denom <= 0.0:
            return {}
        return {name: value / denom for name, value in totals.items()}

    def to_dict(self) -> dict:
        shares = self.blocking_shares()
        return {
            "makespan_s": self.makespan_s,
            "path_total_s": self.total_s,
            "segments": [seg.to_dict() for seg in self.segments],
            "blocking_s": self.blocking_s(),
            "blocking_shares": shares,
        }


def _sweep(entries, makespan_s: float, pick) -> CriticalPath:
    """The shared backward sweep.

    From ``t = makespan`` walk toward 0: among entries covering ``t``
    (``start_s < t`` and ``end_s >= t - tol``) let ``pick`` choose the
    binding one, emit the segment ``[entry.start_s, t]``, and continue
    from the entry's start.  When nothing covers ``t`` the gap down to
    the latest earlier completion becomes an :data:`IDLE` segment.
    Segments telescope — each starts exactly where the next (in time)
    begins — so their durations sum to the makespan by construction.
    """
    if makespan_s <= 0.0:
        return CriticalPath(makespan_s=max(makespan_s, 0.0), segments=())
    tol = 1e-12 * max(makespan_s, 1.0)
    segments: list[PathSegment] = []
    t = makespan_s
    while t > tol:
        covering = [
            e for e in entries
            if e["start_s"] < t - tol and e["end_s"] >= t - tol
        ]
        if covering:
            entry = pick(covering)
            start = max(entry["start_s"], 0.0)
            segments.append(PathSegment(
                resource=entry["resource"],
                label=entry["label"],
                start_s=start,
                end_s=t,
            ))
            t = start
        else:
            earlier_ends = [e["end_s"] for e in entries if e["end_s"] < t - tol]
            start = max(earlier_ends, default=0.0)
            start = max(start, 0.0)
            segments.append(PathSegment(
                resource=IDLE, label=IDLE, start_s=start, end_s=t,
            ))
            t = start
    if segments:
        # Pin the endpoints so the telescoping sum equals the makespan
        # bit-for-bit: first hop ends at the makespan, last starts at 0.
        first = segments[0]
        segments[0] = PathSegment(
            first.resource, first.label, first.start_s, makespan_s
        )
        last = segments[-1]
        if last.start_s <= tol:
            segments[-1] = PathSegment(
                last.resource, last.label, 0.0, last.end_s
            )
    segments.reverse()
    return CriticalPath(makespan_s=makespan_s, segments=tuple(segments))


def _normalize_entries(timeline) -> list[dict]:
    rows = []
    for entry in timeline or []:
        start_s = float(_get(entry, "start_s", 0.0))
        end_s = float(_get(entry, "end_s", start_s))
        if end_s <= start_s:       # zero-width entries can never bind
            continue
        rows.append({
            "resource": str(_get(entry, "resource", "?")),
            "label": str(_get(entry, "label", "busy")),
            "start_s": start_s,
            "end_s": end_s,
        })
    return rows


def critical_path(run_or_timeline, makespan_s: float | None = None) -> CriticalPath:
    """Extract the binding-resource chain from an engine run timeline.

    Accepts an ``EngineRun``, its ``to_dict`` payload, or a bare
    timeline list (then ``makespan_s`` defaults to the latest entry
    end).  Tie-break among covering holds: earliest start (the hold
    that has been blocking longest), then resource name — deterministic
    for equal inputs.
    """
    timeline = _get(run_or_timeline, "timeline", run_or_timeline)
    entries = _normalize_entries(timeline)
    if makespan_s is None:
        declared = _get(run_or_timeline, "makespan_s")
        if declared is not None:
            makespan_s = float(declared)
        else:
            makespan_s = max((e["end_s"] for e in entries), default=0.0)

    def pick(covering: list[dict]) -> dict:
        return min(covering, key=lambda e: (e["start_s"], e["resource"]))

    return _sweep(entries, makespan_s, pick)


def critical_path_trace(doc: dict) -> CriticalPath:
    """Critical path over a Chrome trace document's wall-clock spans.

    Spans nest, so each span is first flattened to its *self-time*
    intervals (its extent minus its children's) — the instants where it,
    not a callee, was the innermost frame.  Sweeping those flat pieces
    attributes every point of the trace to the deepest active span;
    keeping the whole spans instead would degenerate the path to the
    root.  Tracks are labeled ``resource = "pid/tid"`` (thread names
    substituted when metadata is present), and time is rebased so the
    earliest span starts at 0.
    """
    spans, names = _trace_spans(doc)
    if not spans:
        return CriticalPath(makespan_s=0.0, segments=())
    base = min(s["ts"] for s in spans)
    children: dict[int, list[dict]] = {}
    for s in spans:
        parent = s.get("_parent")
        if parent is not None:
            children.setdefault(id(parent), []).append(s)
    entries = []
    for s in spans:
        track = names.get((s["pid"], s["tid"]), f"{s['pid']}/{s['tid']}")
        # Self intervals: the span's extent minus its (non-overlapping,
        # time-sorted) children — the stack reconstruction guarantees
        # siblings never overlap within a track.
        cursor = s["ts"]
        pieces = []
        for child in sorted(children.get(id(s), ()), key=lambda c: c["ts"]):
            pieces.append((cursor, min(child["ts"], s["ts"] + s["dur"])))
            cursor = max(cursor, child["ts"] + child["dur"])
        pieces.append((cursor, s["ts"] + s["dur"]))
        for piece_start, piece_end in pieces:
            start_s = (piece_start - base) / 1e6
            end_s = (piece_end - base) / 1e6
            if end_s <= start_s:
                continue
            entries.append({
                "resource": track,
                "label": str(s.get("name", "span")),
                "start_s": start_s,
                "end_s": end_s,
                "_depth": s.get("_depth", 0),
            })
    makespan_s = max((e["end_s"] for e in entries), default=0.0)

    def pick(covering: list[dict]) -> dict:
        return max(
            covering,
            key=lambda e: (e["_depth"], e["start_s"], e["resource"]),
        )

    return _sweep(entries, makespan_s, pick)


# -- span-tree self time ---------------------------------------------------

def _trace_spans(doc: dict) -> tuple[list[dict], dict]:
    """Complete (``ph: "X"``) events + ``(pid, tid) -> track name`` map.

    Depth is reconstructed per track with an interval stack (events
    sorted by start, longest-first on ties), annotated as ``_depth``.
    """
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else []
    names: dict[tuple, str] = {}
    process: dict[int, str] = {}
    spans = []
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            args = event.get("args") or {}
            if event.get("name") == "thread_name" and "name" in args:
                names[(event.get("pid"), event.get("tid"))] = str(args["name"])
            elif event.get("name") == "process_name" and "name" in args:
                process[event.get("pid")] = str(args["name"])
        elif ph == "X":
            spans.append({
                "name": event.get("name", "span"),
                "pid": event.get("pid", 0),
                "tid": event.get("tid", 0),
                "ts": float(event.get("ts", 0.0)),
                "dur": float(event.get("dur", 0.0)),
            })
    for key in list(names):
        pid = key[0]
        if pid in process:
            names[key] = f"{process[pid]}:{names[key]}"
    # Reconstruct nesting depth per (pid, tid) track.
    by_track: dict[tuple, list[dict]] = {}
    for span in spans:
        by_track.setdefault((span["pid"], span["tid"]), []).append(span)
    for track_spans in by_track.values():
        track_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack: list[dict] = []
        for span in track_spans:
            while stack and span["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            span["_depth"] = len(stack)
            span["_parent"] = stack[-1] if stack else None
            stack.append(span)
    return spans, names


def self_time(doc: dict) -> list[dict]:
    """Per-span-name rollup of total and *self* wall-clock time.

    Self time charges each span its duration minus its children's, so
    the rollup sums to the trace's busy time without double-counting
    nested spans.  Rows are sorted by self time, descending.
    """
    spans, _ = _trace_spans(doc)
    for span in spans:
        span["_child_us"] = 0.0
    for span in spans:
        parent = span.get("_parent")
        if parent is not None:
            parent["_child_us"] += span["dur"]
    rollup: dict[str, dict] = {}
    for span in spans:
        row = rollup.setdefault(
            span["name"], {"name": span["name"], "count": 0,
                           "total_us": 0.0, "self_us": 0.0},
        )
        row["count"] += 1
        row["total_us"] += span["dur"]
        row["self_us"] += max(span["dur"] - span["_child_us"], 0.0)
    return sorted(
        rollup.values(), key=lambda r: (-r["self_us"], r["name"]),
    )


def diff_traces(old_doc: dict, new_doc: dict) -> list[dict]:
    """Join two self-time rollups by span name, ranked by |self delta|.

    The output localizes a regression: each row carries old/new
    self and total times, the deltas, and a status (``added`` /
    ``removed`` / ``changed``).
    """
    old_rows = {row["name"]: row for row in self_time(old_doc)}
    new_rows = {row["name"]: row for row in self_time(new_doc)}
    diff = []
    for name in sorted(set(old_rows) | set(new_rows)):
        old = old_rows.get(name)
        new = new_rows.get(name)
        old_self = old["self_us"] if old else 0.0
        new_self = new["self_us"] if new else 0.0
        old_total = old["total_us"] if old else 0.0
        new_total = new["total_us"] if new else 0.0
        diff.append({
            "name": name,
            "status": (
                "added" if old is None
                else "removed" if new is None
                else "changed"
            ),
            "old_self_us": old_self,
            "new_self_us": new_self,
            "delta_self_us": new_self - old_self,
            "old_total_us": old_total,
            "new_total_us": new_total,
            "delta_total_us": new_total - old_total,
        })
    diff.sort(key=lambda r: (-abs(r["delta_self_us"]), r["name"]))
    return diff


# -- artifact walking ------------------------------------------------------

def find_timelines(payload) -> list[tuple[str, dict]]:
    """``(label, sub-payload-with-timeline)`` pairs in an artifact.

    Mirrors :func:`repro.obs.convert.result_events`: top level and one
    level down.
    """
    if not isinstance(payload, dict):
        return []
    found = []
    if isinstance(payload.get("timeline"), list) and payload["timeline"]:
        found.append(("result", payload))
    for key, value in payload.items():
        if (
            isinstance(value, dict)
            and isinstance(value.get("timeline"), list)
            and value["timeline"]
        ):
            found.append((str(key), value))
    return found
