"""Event timelines: what ran where, when — the engine's observable output.

A :class:`TimelineEntry` records one contiguous occupancy of one resource
by one labelled task; zero-duration work records a zero-width entry, so
zero-cost layers stay visible in timelines and occupancy reports agree
with the compiled program's stage list.

:class:`EngineRun` packages a finished simulation: makespan, energy, the
recorded timeline, and per-resource occupancy statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .kernel import Engine, ResourceStats

__all__ = [
    "EngineRun",
    "TimelineEntry",
    "entries_from_dicts",
    "entries_to_dicts",
]


@dataclass(frozen=True)
class TimelineEntry:
    """One task's contiguous occupancy of one resource."""

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
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimelineEntry":
        return cls(
            resource=str(payload["resource"]),
            label=str(payload["label"]),
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
        )


def entries_to_dicts(entries: list[TimelineEntry]) -> list[dict]:
    """JSON-ready timeline payload (inverse of :func:`entries_from_dicts`)."""
    return [entry.to_dict() for entry in entries]


def entries_from_dicts(payload: list[dict]) -> list[TimelineEntry]:
    return [TimelineEntry.from_dict(item) for item in payload]


@dataclass
class EngineRun:
    """Outcome of one engine simulation.

    ``energy_pj`` covers dynamic energy of the simulated work plus static
    energy over the makespan; for a single request it reproduces the
    analytical :class:`~repro.arch.report.InferenceReport` total exactly
    (the regression-test oracle).
    """

    makespan_s: float
    energy_pj: float
    timeline: list[TimelineEntry] = field(default_factory=list)
    resource_stats: dict[str, ResourceStats] = field(default_factory=dict)

    def utilization(self) -> dict[str, float]:
        """Busy fraction of each resource over the makespan."""
        return {
            name: stats.utilization(self.makespan_s)
            for name, stats in self.resource_stats.items()
        }

    def busy_s(self, resource: str) -> float:
        return self.resource_stats[resource].busy_s

    def to_dict(self) -> dict:
        """JSON-ready payload: the shape ``repro analyze`` consumes."""
        return {
            "makespan_s": self.makespan_s,
            "energy_pj": self.energy_pj,
            "timeline": entries_to_dicts(self.timeline),
            "utilization": self.utilization(),
        }

    def critical_path(self):
        """The binding-resource chain bounding this run's makespan.

        Delegates to :func:`repro.obs.analyze.critical_path` (imported
        lazily — the engine package is imported *by* ``repro.obs``, so
        the dependency must stay call-time only); see there for the
        exactness guarantees.
        """
        from ...obs.analyze import critical_path

        return critical_path(self)

    @classmethod
    def capture(
        cls,
        engine: Engine,
        energy_pj: float = 0.0,
        timeline: list[TimelineEntry] | None = None,
    ) -> "EngineRun":
        """Snapshot a drained engine into a result object.

        Stats are copied, so the snapshot stays stable even if the engine
        is run further (``run(until=...)`` supports incremental draining);
        in-flight holds are integrated up to ``engine.now`` first so a
        mid-run snapshot reports the elapsed occupancy.
        """
        for resource in engine.resources.values():
            resource._integrate()
        return cls(
            makespan_s=engine.now,
            energy_pj=energy_pj,
            timeline=list(timeline or []),
            resource_stats={
                name: replace(resource.stats)
                for name, resource in engine.resources.items()
            },
        )
