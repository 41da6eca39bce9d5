"""Bishop machine on the engine: task-graph semantics and timing extraction."""

import gc

import pytest

from repro.arch import BishopAccelerator, BishopConfig
from repro.bundles import BundleSpec
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import model_config

from .reference_lanes import MAX_QUANTA, _quanta, replay_inference


@pytest.fixture(scope="module")
def report():
    spec = BundleSpec(2, 4)
    trace = synthetic_trace(model_config("model4"), PROFILES["model4"], spec, seed=0)
    return BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(trace)


class TestLayerTimings:
    def test_compute_matches_notes(self, report):
        for timing, layer in zip(report.program.timings(), report.layers):
            assert timing.compute_s == pytest.approx(layer.notes["compute_time_s"])
            assert timing.dram_s() == pytest.approx(layer.notes["dram_time_s"])

    def test_attention_layers_have_no_core_split(self, report):
        for timing in report.program.timings():
            if timing.phase == "ATN":
                assert timing.dense_s == 0.0 and timing.sparse_s == 0.0
                assert timing.attention_s > 0.0
            else:
                assert timing.attention_s == 0.0

    def test_dynamic_energy_excludes_static(self, report):
        timings = report.program.timings()
        dynamic = sum(t.dynamic_pj for t in timings)
        static = sum(l.energy.static_pj for l in report.layers)
        assert dynamic + static == pytest.approx(report.total_energy_pj)

    def test_tile_counts_recorded(self, report):
        timings = report.program.timings()
        assert any(t.dense_tiles > 1 for t in timings)
        assert any(t.attention_tiles >= 1 for t in timings if t.phase == "ATN")

    def test_batch_scaling(self, report):
        timing = report.program.timings()[0]
        assert timing.dram_s(4) == pytest.approx(
            timing.weight_dram_s + 4 * timing.activation_dram_s
        )
        # weights stream once per batch: energy grows sub-linearly
        assert timing.batch_dynamic_pj(4) < 4 * timing.batch_dynamic_pj(1)
        assert timing.batch_dynamic_pj(1) == pytest.approx(timing.dynamic_pj)


class TestQuanta:
    """The reference lanes' per-task quanta (the callback replays hold
    each unit once per task)."""

    def test_capped_at_max_quanta(self):
        assert _quanta(1, MAX_QUANTA) == 1
        assert _quanta(3, MAX_QUANTA) == 3
        assert _quanta(10_000, MAX_QUANTA) == MAX_QUANTA

    def test_defaults_to_one_event_run_per_task(self):
        assert _quanta(1) == 1
        assert _quanta(3) == 1
        assert _quanta(10_000) == 1


class TestReplayInference:
    """The compiled program replayed alone on a fresh engine."""

    @pytest.fixture(scope="class")
    def run(self, report):
        return replay_inference(report)

    def test_matches_analytical_oracle(self, report, run):
        assert run.makespan_s == pytest.approx(report.total_latency_s, rel=1e-9)
        assert run.energy_pj == pytest.approx(report.total_energy_pj, rel=1e-9)

    def test_timeline_covers_all_resources(self, run):
        resources = {entry.resource for entry in run.timeline}
        assert {"dense_core", "sparse_core", "attention_core", "spike_gen", "dram"} <= resources

    def test_utilization_bounded(self, run):
        for name, value in run.utilization().items():
            assert 0.0 <= value <= 1.0 + 1e-9, name

    def test_cores_never_overlap_themselves(self, run):
        by_resource = {}
        for entry in run.timeline:
            by_resource.setdefault(entry.resource, []).append(entry)
        for entries in by_resource.values():
            entries.sort(key=lambda e: e.start_s)
            for first, second in zip(entries, entries[1:]):
                assert second.start_s >= first.end_s - 1e-12


class TestMachineConstruction:
    def test_allocates_no_command(self):
        """Only processes build commands, and they exist only in the
        reference kernel: a 1,000-chip fleet's 5,000 resources must not
        each carry an ``Acquire``/``Release`` pair."""
        from repro.arch.engine import BishopMachine, Engine

        from .reference_kernel import Command

        def commands():
            return {id(obj) for obj in gc.get_objects() if isinstance(obj, Command)}

        gc.collect()
        gc.disable()
        try:
            before = commands()
            machine = BishopMachine(Engine())
            assert commands() - before == set()
        finally:
            gc.enable()
        assert len(machine.resources) == 5


class TestContention:
    def test_two_requests_share_one_chip(self, report):
        """Two concurrent requests finish later than one, earlier than 2x serial."""
        from repro.arch.engine import BishopMachine, Engine, SerialReplay

        timings = report.program.timings()
        single = report.total_latency_s

        engine = Engine()
        machine = BishopMachine(engine)
        for label in ("r0", "r1"):
            SerialReplay(engine, machine, timings, label).start(lambda: None)
        makespan = engine.run()
        assert makespan > single * 1.05          # contention costs something
        assert makespan < 2 * single + 1e-12     # never worse than serial
