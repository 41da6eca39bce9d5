"""Discrete-event engine for the heterogeneous-core simulator.

``kernel``
    Event queue, shared clock, contended resources; work is callbacks.
``timeline``
    Timeline records and the :class:`EngineRun` result container.
``machine``
    The Bishop chip as engine resources plus the per-layer task durations.
``lanes``
    Callback replays of a program or stage (one event per occupancy):
    every contended run.
``fastpath``
    Closed-form depth-1 prefetch makespan of an uncontended task graph
    (the compiler's schedule pass).

See docs/ARCHITECTURE.md for the event model and how a core plugs in.
"""

from .fastpath import FastSchedule, schedule_for
from .kernel import Engine, Resource, ResourceStats
from .lanes import ScheduledReplay, SerialReplay
from .machine import BishopMachine, LayerTiming
from .timeline import EngineRun, TimelineEntry, entries_from_dicts, entries_to_dicts

__all__ = [
    "BishopMachine",
    "Engine",
    "EngineRun",
    "FastSchedule",
    "LayerTiming",
    "Resource",
    "ResourceStats",
    "ScheduledReplay",
    "SerialReplay",
    "TimelineEntry",
    "entries_from_dicts",
    "entries_to_dicts",
    "schedule_for",
]
