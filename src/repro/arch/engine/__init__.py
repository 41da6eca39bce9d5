"""Discrete-event engine for the heterogeneous-core simulator.

``kernel``
    Event queue, shared clock, contended resources; work is callbacks.
``timeline``
    Timeline records and the :class:`EngineRun` result container.
``machine``
    The Bishop chip as engine resources plus the per-layer task descriptor.
``lanes``
    Callback replays of a program or stage (one event per occupancy):
    every contended run.

An uncontended request needs no engine: the compiled
:class:`~repro.compiler.ir.Program` answers its latency in closed form.

See docs/ARCHITECTURE.md for the event model and how a core plugs in.
"""

from .kernel import Engine, Resource, ResourceStats
from .lanes import ScheduledReplay, SerialReplay
from .machine import BishopMachine, LayerTiming
from .timeline import EngineRun, TimelineEntry, entries_from_dicts, entries_to_dicts

__all__ = [
    "BishopMachine",
    "Engine",
    "EngineRun",
    "LayerTiming",
    "Resource",
    "ResourceStats",
    "ScheduledReplay",
    "SerialReplay",
    "TimelineEntry",
    "entries_from_dicts",
    "entries_to_dicts",
]
