"""Machine namespacing on a shared engine, and timeline serialization.

Several :class:`BishopMachine` instances share one engine under distinct
resource namespaces (``chip0.dense_core`` …) — how a shard hosts many
chips — and timelines round-trip through JSON unchanged.
"""

import json

from repro.arch.engine import (
    BishopMachine,
    Engine,
    TimelineEntry,
    entries_from_dicts,
    entries_to_dicts,
)


def entry(resource, label, start, end=None):
    return TimelineEntry(resource, label, start, end if end is not None else start + 1.0)


class TestMachineNamespacing:
    def test_two_machines_share_one_engine(self):
        engine = Engine()
        chip0 = BishopMachine(engine, name="chip0")
        chip1 = BishopMachine(engine, name="chip1")
        assert chip0.dense_core.name == "chip0.dense_core"
        assert chip1.dense_core.name == "chip1.dense_core"
        assert set(engine.resources) == {
            f"chip{i}.{unit}"
            for i in (0, 1)
            for unit in BishopMachine.RESOURCE_NAMES
        }

    def test_unnamed_machine_keeps_bare_names(self):
        engine = Engine()
        machine = BishopMachine(engine)
        assert set(engine.resources) == set(BishopMachine.RESOURCE_NAMES)
        assert set(machine.resources) == set(BishopMachine.RESOURCE_NAMES)


class TestSerialization:
    def test_round_trip_preserves_order_and_values(self):
        timeline = [
            entry("chip0.dense_core", "a", 0.0),
            entry("chip1.sparse_core", "b", 0.5, 0.75),
        ]
        payload = entries_to_dicts(timeline)
        assert json.loads(json.dumps(payload)) == payload  # JSON-clean
        assert entries_from_dicts(payload) == timeline

    def test_round_trip_through_json_text(self):
        timeline = [entry("dram", "weights", 1.25, 2.5)]
        text = json.dumps(entries_to_dicts(timeline))
        restored = entries_from_dicts(json.loads(text))
        assert restored == timeline
        assert restored[0].duration_s == 1.25
