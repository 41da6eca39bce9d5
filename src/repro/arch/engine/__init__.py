"""Discrete-event engine for the heterogeneous-core simulator.

``kernel``
    Event queue, shared clock, cooperative processes, contended resources.
``timeline``
    Timeline records and the :class:`EngineRun` result container.
``machine``
    The Bishop chip as engine resources plus the per-layer task graph.
``lanes``
    Callback replays of a program or stage (one event per occupancy) —
    the serving lanes of the ``REPRO_ENGINE=fast`` default.
``fastpath``
    Vectorized closed-form replay of uncontended task graphs (the
    ``REPRO_ENGINE=fast`` default; ``kernel`` selects the event heap).

See docs/ARCHITECTURE.md for the event model and how a core plugs in.
"""

from .fastpath import FastSchedule, engine_mode, schedule_for
from .kernel import (
    Acquire,
    Await,
    Command,
    Engine,
    Gate,
    Hold,
    Join,
    Process,
    Release,
    Resource,
    ResourceStats,
    WaitFor,
)
from .lanes import ScheduledReplay, SerialReplay
from .machine import (
    BishopMachine,
    LayerTiming,
    inference_process,
    layer_timings,
    scheduled_inference_process,
    simulate_inference,
)
from .timeline import (
    EngineRun,
    TimelineEntry,
    entries_from_dicts,
    entries_to_dicts,
    use,
)

__all__ = [
    "Acquire",
    "Await",
    "BishopMachine",
    "Command",
    "Engine",
    "EngineRun",
    "FastSchedule",
    "Gate",
    "Hold",
    "Join",
    "LayerTiming",
    "Process",
    "Release",
    "Resource",
    "ResourceStats",
    "ScheduledReplay",
    "SerialReplay",
    "TimelineEntry",
    "WaitFor",
    "engine_mode",
    "entries_from_dicts",
    "entries_to_dicts",
    "inference_process",
    "layer_timings",
    "schedule_for",
    "scheduled_inference_process",
    "simulate_inference",
    "use",
]
