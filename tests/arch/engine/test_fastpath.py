"""Fastpath-vs-kernel equivalence: the vectorized replay must agree with
the event replay to float precision.

The fast path (``REPRO_ENGINE=fast``, the default) answers uncontended
single-request makespans in closed form and synthesizes the serial
replay's :class:`EngineRun` without events; kernel mode replays the
program with the callback lanes on the event engine.  These tests pin
the two against each other on the zoo, on randomized task graphs
(including the degenerate shapes: zero-compute, zero-weight,
zero-activation, empty chains), and across batch sizes.
"""

import time

import numpy as np
import pytest

from repro.arch import BishopAccelerator, BishopConfig, EnergyModel, simulate_inference
from repro.arch.engine import LayerTiming, engine_mode, schedule_for
from repro.arch.engine.fastpath import FastSchedule
from repro.bundles import BundleSpec
from repro.compiler.emit import measure_timings, measure_timings_kernel
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import MODEL_ZOO, model_config

APPROX = dict(rel=1e-9, abs=1e-12)


def random_timings(rng, layers):
    """A random task graph hitting every structural branch: ATN vs matmul
    layers, zero-duration tasks, weight-only and activation-only traffic."""
    out = []
    for index in range(layers):
        phase = "ATN" if rng.random() < 0.3 else "MLP"
        zero = lambda: rng.random() < 0.25
        if phase == "ATN":
            dense = sparse = 0.0
            attention = 0.0 if zero() else float(rng.uniform(0.1, 4.0))
        else:
            attention = 0.0
            dense = 0.0 if zero() else float(rng.uniform(0.1, 4.0))
            sparse = 0.0 if zero() else float(rng.uniform(0.1, 4.0))
        out.append(LayerTiming(
            block=index,
            kind="atn" if phase == "ATN" else "mlp1",
            phase=phase,
            dense_s=dense,
            sparse_s=sparse,
            attention_s=attention,
            spike_gen_s=0.0 if zero() else float(rng.uniform(0.01, 1.0)),
            weight_dram_s=0.0 if zero() else float(rng.uniform(0.1, 5.0)),
            activation_dram_s=0.0 if zero() else float(rng.uniform(0.1, 5.0)),
            dynamic_pj=float(rng.uniform(0.0, 100.0)),
            weight_dram_pj=float(rng.uniform(0.0, 10.0)),
        ))
    return tuple(out)


class TestEngineMode:
    def test_defaults_to_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert engine_mode() == "fast"

    @pytest.mark.parametrize("mode", ["kernel", "fast", "KERNEL", " fast "])
    def test_env_switch(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        assert engine_mode() == mode.strip().lower()

    @pytest.mark.parametrize("mode", ["warp", "fastt", "fast kernel", "1"])
    def test_invalid_mode_rejected(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        with pytest.raises(ValueError, match="REPRO_ENGINE") as excinfo:
            engine_mode()
        # The error must name every valid spelling, not just reject.
        assert "fast|kernel" in str(excinfo.value)

    def test_measure_timings_honours_the_switch(self, monkeypatch):
        timings = random_timings(np.random.default_rng(0), 4)
        monkeypatch.setenv("REPRO_ENGINE", "kernel")
        via_kernel = measure_timings(timings, scheduled=True)
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        via_fast = measure_timings(timings, scheduled=True)
        assert via_fast == pytest.approx(via_kernel, **APPROX)


class TestMakespanEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_serial_matches_kernel_on_random_graphs(self, seed, batch):
        timings = random_timings(np.random.default_rng(seed), 12)
        fast = schedule_for(timings).serial_makespan(batch)
        kernel = measure_timings_kernel(timings, scheduled=False, batch=batch)
        assert fast == pytest.approx(kernel, **APPROX)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_scheduled_matches_kernel_on_random_graphs(self, seed, batch):
        timings = random_timings(np.random.default_rng(100 + seed), 12)
        fast = schedule_for(timings).scheduled_makespan(batch)
        kernel = measure_timings_kernel(timings, scheduled=True, batch=batch)
        assert fast == pytest.approx(kernel, **APPROX)

    def test_empty_chain(self):
        schedule = schedule_for(())
        assert schedule.serial_makespan() == 0.0
        assert schedule.scheduled_makespan() == 0.0

    def test_scheduled_between_serial_and_pipelined_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            timings = random_timings(rng, 10)
            schedule = schedule_for(timings)
            serial = schedule.serial_makespan()
            scheduled = schedule.scheduled_makespan()
            bound = max(
                float(schedule.compute.sum()),
                float((schedule.weight + schedule.activation).sum()),
            )
            assert scheduled <= serial * (1 + 1e-12) + 1e-15
            assert scheduled >= bound * (1 - 1e-12) - 1e-15

    def test_zoo_program_matches_kernel(self):
        from repro.compiler import compile_model

        program = compile_model("model4", BishopConfig(bundle_spec=BundleSpec(2, 4)))
        timings = program.timings()
        schedule = schedule_for(timings)
        for batch in (1, 2, 4):
            assert schedule.serial_makespan(batch) == pytest.approx(
                measure_timings_kernel(timings, scheduled=False, batch=batch),
                **APPROX,
            )
            assert schedule.scheduled_makespan(batch) == pytest.approx(
                measure_timings_kernel(timings, scheduled=True, batch=batch),
                **APPROX,
            )


def coalesce(timeline):
    """Merge adjacent same-task chunk entries (the kernel's tile quanta)
    into one run per task, keyed by (resource, label)."""
    runs: dict[tuple[str, str], list[float]] = {}
    for entry in sorted(timeline, key=lambda e: (e.resource, e.label, e.start_s)):
        key = (entry.resource, entry.label)
        if key in runs and entry.start_s <= runs[key][1] + 1e-12:
            runs[key][1] = max(runs[key][1], entry.end_s)
        else:
            runs[key] = [entry.start_s, entry.end_s]
    return {key: tuple(span) for key, span in runs.items()}


class TestReplayEquivalence:
    @pytest.fixture(scope="class")
    def report(self):
        spec = BundleSpec(2, 4)
        trace = synthetic_trace(
            model_config("model4"), PROFILES["model4"], spec, seed=0
        )
        return BishopAccelerator(
            BishopConfig(bundle_spec=spec)
        ).run_trace(trace, simulate_events=False)

    def _run(self, report, mode, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        config = BishopConfig(bundle_spec=BundleSpec(2, 4))
        return simulate_inference(report, config, EnergyModel())

    def test_makespan_energy_and_stats_match(self, report, monkeypatch):
        fast = self._run(report, "fast", monkeypatch)
        kernel = self._run(report, "kernel", monkeypatch)
        assert fast.makespan_s == pytest.approx(kernel.makespan_s, **APPROX)
        assert fast.energy_pj == pytest.approx(kernel.energy_pj, **APPROX)
        assert set(fast.resource_stats) == set(kernel.resource_stats)
        for name, stats in kernel.resource_stats.items():
            assert fast.resource_stats[name].busy_s == pytest.approx(
                stats.busy_s, **APPROX
            ), name
            assert fast.resource_stats[name].wait_s == 0.0

    def test_timelines_match_after_coalescing(self, report, monkeypatch):
        fast = self._run(report, "fast", monkeypatch)
        kernel = self._run(report, "kernel", monkeypatch)
        fast_runs = coalesce(fast.timeline)
        kernel_runs = coalesce(kernel.timeline)
        assert set(fast_runs) == set(kernel_runs)
        for key, (start, end) in kernel_runs.items():
            assert fast_runs[key][0] == pytest.approx(start, **APPROX), key
            assert fast_runs[key][1] == pytest.approx(end, **APPROX), key
        # coalesced: one entry per layer task, never one per tile quantum
        assert len(fast.timeline) == len(fast_runs)
        assert len(fast.timeline) <= len(kernel.timeline)

    def test_record_timeline_flag(self, report, monkeypatch):
        run = simulate_inference(
            report, BishopConfig(bundle_spec=BundleSpec(2, 4)),
            record_timeline=False,
        )
        assert run.timeline == []
        assert run.makespan_s > 0


class TestFastScheduleMemoization:
    def test_equal_timing_tuples_share_one_schedule(self):
        a = random_timings(np.random.default_rng(3), 6)
        b = tuple(LayerTiming(**{
            field: getattr(t, field) for field in t.__dataclass_fields__
        }) for t in a)
        assert a is not b
        assert schedule_for(a) is schedule_for(b)

    def test_batch_energy_matches_layer_sum(self):
        timings = random_timings(np.random.default_rng(4), 6)
        schedule = schedule_for(timings)
        for batch in (1, 2, 5):
            assert schedule.batch_dynamic_pj(batch) == pytest.approx(
                sum(t.batch_dynamic_pj(batch) for t in timings), **APPROX
            )

    def test_sparse_core_share_matches_layer_sum(self):
        timings = random_timings(np.random.default_rng(5), 6)
        schedule = schedule_for(timings)
        total = sum(
            t.dense_s + t.sparse_s + t.attention_s + t.spike_gen_s
            for t in timings
        )
        expected = sum(t.sparse_s for t in timings) / total
        assert schedule.sparse_core_share == pytest.approx(expected, **APPROX)


class TestServingProfileEquivalence:
    """The timings the serving layer replays (``request_profile``) agree
    with the kernel to the speedup test's 1e-9 bound for every zoo model
    and pass set, and the synthesized serial run carries that makespan."""

    @pytest.mark.parametrize("passes", ["all", "packing+stratify+ecp", "none"])
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_makespans_match_kernel(self, model, passes):
        from repro.serve import request_profile

        timings = request_profile(model, passes=passes).timings
        schedule = schedule_for(timings)
        kernel_serial = measure_timings_kernel(timings, scheduled=False)
        kernel_scheduled = measure_timings_kernel(timings, scheduled=True)
        fast_serial = schedule.serial_makespan()
        assert abs(fast_serial - kernel_serial) <= 1e-9 * kernel_serial
        assert abs(schedule.scheduled_makespan() - kernel_scheduled) <= (
            1e-9 * kernel_scheduled
        )
        assert schedule.serial_run(label=model).makespan_s == pytest.approx(
            fast_serial, **APPROX
        )

    @pytest.mark.parametrize("bs_t, bs_n", [(1, 2), (4, 4), (4, 14)])
    def test_bundle_shapes_match_kernel(self, bs_t, bs_n):
        from repro.serve import request_profile

        timings = request_profile("model4", bs_t=bs_t, bs_n=bs_n).timings
        schedule = schedule_for(timings)
        for batch in (1, 4):
            kernel_serial = measure_timings_kernel(
                timings, scheduled=False, batch=batch
            )
            kernel_scheduled = measure_timings_kernel(
                timings, scheduled=True, batch=batch
            )
            assert abs(schedule.serial_makespan(batch) - kernel_serial) <= (
                1e-9 * kernel_serial
            )
            assert abs(schedule.scheduled_makespan(batch) - kernel_scheduled) <= (
                1e-9 * kernel_scheduled
            )


class TestReplayEquivalenceZoo:
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_makespan_energy_and_busy_match(self, model, monkeypatch):
        spec = BundleSpec(2, 4)
        config = BishopConfig(bundle_spec=spec)
        trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=0)
        report = BishopAccelerator(config).run_trace(trace, simulate_events=False)
        runs = {}
        for mode in ("fast", "kernel"):
            monkeypatch.setenv("REPRO_ENGINE", mode)
            runs[mode] = simulate_inference(report, config, EnergyModel())
        fast, kernel = runs["fast"], runs["kernel"]
        assert fast.makespan_s == pytest.approx(kernel.makespan_s, **APPROX)
        assert fast.energy_pj == pytest.approx(kernel.energy_pj, **APPROX)
        assert set(fast.resource_stats) == set(kernel.resource_stats)
        for name, stats in kernel.resource_stats.items():
            assert fast.resource_stats[name].busy_s == pytest.approx(
                stats.busy_s, **APPROX
            ), name


@pytest.mark.slow
class TestSpeedup:
    def test_fast_replay_is_at_least_5x(self):
        """One compiled model4 program's uncontended request: the
        generator reference lanes' tile-granular event walk (serial +
        scheduled, ``MAX_QUANTA`` quanta per core task) against the fast
        path's closed-form makespans plus :class:`EngineRun` synthesis.
        Both sides run once before timing.  The schedule memo is cleared
        inside the timed region, so its construction is timed and every
        later repeat answers from the cached columnar schedule."""
        from repro.arch.engine import fastpath
        from repro.serve import request_profile

        from .reference_lanes import MAX_QUANTA, reference_makespan

        repeats = 3
        timings = request_profile("model4", seed=0).timings

        def lanes():
            return (
                reference_makespan(timings, False, max_quanta=MAX_QUANTA),
                reference_makespan(timings, True, max_quanta=MAX_QUANTA),
            )

        def fast():
            schedule = schedule_for(timings)
            schedule.serial_run(label="model4")
            return schedule.serial_makespan(), schedule.scheduled_makespan()

        lanes()
        fast()

        started = time.perf_counter()
        for _ in range(repeats):
            kernel_serial, kernel_scheduled = lanes()
        kernel_s = time.perf_counter() - started

        started = time.perf_counter()
        fastpath._schedule_for.cache_clear()
        for _ in range(repeats):
            fast_serial, fast_scheduled = fast()
        fast_s = time.perf_counter() - started

        serial_err = abs(fast_serial - kernel_serial) / max(kernel_serial, 1e-30)
        scheduled_err = abs(fast_scheduled - kernel_scheduled) / max(
            kernel_scheduled, 1e-30
        )
        assert kernel_s / fast_s >= 5.0
        assert max(serial_err, scheduled_err) <= 1e-9
