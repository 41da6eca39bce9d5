"""Closed form vs event replay: the vectorized fast path must agree with
the callback replays to float precision.

The fast path answers every uncontended single-request makespan in
closed form and synthesizes the serial replay's :class:`EngineRun`
without events; the oracles of :mod:`.reference_lanes`
(:func:`replay_makespan`, :func:`replay_inference`) replay the same
program with the callback lanes on a fresh engine.  These tests pin the
two against each other on the zoo, on randomized task graphs (including
the degenerate shapes: zero-compute, zero-weight, zero-activation, empty
chains), across batch sizes, and ``==`` on integer-grid timings, where
every sum is exact and each DRAM tie rule must match bit for bit.
"""

import time

import numpy as np
import pytest

from repro.arch import BishopAccelerator, BishopConfig, EnergyModel, simulate_inference
from repro.arch.engine import LayerTiming, schedule_for
from repro.arch.engine.fastpath import FastSchedule
from repro.bundles import BundleSpec
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import MODEL_ZOO, model_config

from .reference_lanes import replay_inference, replay_makespan

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


class TestMakespanEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_serial_matches_kernel_on_random_graphs(self, seed, batch):
        timings = random_timings(np.random.default_rng(seed), 12)
        fast = schedule_for(timings).serial_makespan(batch)
        kernel = replay_makespan(timings, scheduled=False, batch=batch)
        assert fast == pytest.approx(kernel, **APPROX)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_scheduled_matches_kernel_on_random_graphs(self, seed, batch):
        timings = random_timings(np.random.default_rng(100 + seed), 12)
        fast = schedule_for(timings).scheduled_makespan(batch)
        kernel = replay_makespan(timings, scheduled=True, batch=batch)
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
                replay_makespan(timings, scheduled=False, batch=batch),
                **APPROX,
            )
            assert schedule.scheduled_makespan(batch) == pytest.approx(
                replay_makespan(timings, scheduled=True, batch=batch),
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


def assert_timelines_match(fast, kernel):
    fast_runs = coalesce(fast.timeline)
    kernel_runs = coalesce(kernel.timeline)
    assert set(fast_runs) == set(kernel_runs)
    for key, (start, end) in kernel_runs.items():
        assert fast_runs[key][0] == pytest.approx(start, **APPROX), key
        assert fast_runs[key][1] == pytest.approx(end, **APPROX), key
    # coalesced: one entry per layer task, never one per tile quantum
    assert len(fast.timeline) == len(fast_runs)
    assert len(fast.timeline) <= len(kernel.timeline)


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

    def _runs(self, report):
        config = BishopConfig(bundle_spec=BundleSpec(2, 4))
        return (
            simulate_inference(report, config, EnergyModel()),
            replay_inference(report, config, EnergyModel()),
        )

    def test_makespan_energy_and_stats_match(self, report):
        fast, kernel = self._runs(report)
        assert fast.makespan_s == pytest.approx(kernel.makespan_s, **APPROX)
        assert fast.energy_pj == pytest.approx(kernel.energy_pj, **APPROX)
        assert set(fast.resource_stats) == set(kernel.resource_stats)
        for name, stats in kernel.resource_stats.items():
            assert fast.resource_stats[name].busy_s == pytest.approx(
                stats.busy_s, **APPROX
            ), name
            assert fast.resource_stats[name].wait_s == 0.0

    def test_timelines_match_after_coalescing(self, report):
        assert_timelines_match(*self._runs(report))

    def test_record_timeline_flag(self, report):
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
        kernel_serial = replay_makespan(timings, scheduled=False)
        kernel_scheduled = replay_makespan(timings, scheduled=True)
        fast_serial = schedule.serial_makespan()
        assert abs(fast_serial - kernel_serial) <= 1e-9 * kernel_serial
        assert abs(schedule.scheduled_makespan() - kernel_scheduled) <= (
            1e-9 * kernel_scheduled
        )
        assert schedule.serial_run(label=model).makespan_s == pytest.approx(
            fast_serial, **APPROX
        )

    @pytest.mark.parametrize("passes", ["all", "packing+stratify+ecp", "none"])
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_request_latency_matches_replay(self, model, passes):
        """The uncontended latency serving and the experiments read off the
        compiled program (the schedule pass's closed form, else the serial
        chain) is the replay's makespan under the program's own schedule."""
        from repro.serve import request_profile

        profile = request_profile(model, passes=passes)
        replay = replay_makespan(profile.timings, scheduled=profile.scheduled)
        assert profile.single_latency_s == pytest.approx(replay, **APPROX)

    @pytest.mark.parametrize("bs_t, bs_n", [(1, 2), (4, 4), (4, 14)])
    def test_bundle_shapes_match_kernel(self, bs_t, bs_n):
        from repro.serve import request_profile

        timings = request_profile("model4", bs_t=bs_t, bs_n=bs_n).timings
        schedule = schedule_for(timings)
        for batch in (1, 4):
            kernel_serial = replay_makespan(
                timings, scheduled=False, batch=batch
            )
            kernel_scheduled = replay_makespan(
                timings, scheduled=True, batch=batch
            )
            assert abs(schedule.serial_makespan(batch) - kernel_serial) <= (
                1e-9 * kernel_serial
            )
            assert abs(schedule.scheduled_makespan(batch) - kernel_scheduled) <= (
                1e-9 * kernel_scheduled
            )


class TestReplayEquivalenceZoo:
    @pytest.fixture(scope="class", params=sorted(MODEL_ZOO))
    def runs(self, request):
        model = request.param
        spec = BundleSpec(2, 4)
        config = BishopConfig(bundle_spec=spec)
        trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=0)
        report = BishopAccelerator(config).run_trace(trace, simulate_events=False)
        return (
            simulate_inference(report, config, EnergyModel()),
            replay_inference(report, config, EnergyModel()),
        )

    def test_makespan_energy_and_busy_match(self, runs):
        fast, kernel = runs
        assert fast.makespan_s == pytest.approx(kernel.makespan_s, **APPROX)
        assert fast.energy_pj == pytest.approx(kernel.energy_pj, **APPROX)
        assert set(fast.resource_stats) == set(kernel.resource_stats)
        for name, stats in kernel.resource_stats.items():
            assert fast.resource_stats[name].busy_s == pytest.approx(
                stats.busy_s, **APPROX
            ), name

    def test_timelines_match_after_coalescing(self, runs):
        assert_timelines_match(*runs)


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


# -- integer-grid property: exact ties -------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

# Whole seconds, zero twice as likely: zero-duration tasks are what open
# the prefetch gate's and the DRAM channel's tie cases.
TICKS = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])


@st.composite
def grid_layer(draw, block):
    """One ATN or MLP layer whose every duration is a whole number of
    seconds in 0..3: sums stay exact, so equal finish times really tie."""
    phase = draw(st.sampled_from(["ATN", "MLP"]))
    attention = draw(TICKS) if phase == "ATN" else 0.0
    dense, sparse = (0.0, 0.0) if phase == "ATN" else (draw(TICKS), draw(TICKS))
    return LayerTiming(
        block=block,
        kind="atn" if phase == "ATN" else "mlp1",
        phase=phase,
        dense_s=dense,
        sparse_s=sparse,
        attention_s=attention,
        spike_gen_s=draw(TICKS),
        weight_dram_s=draw(TICKS),
        activation_dram_s=draw(TICKS),
    )


@st.composite
def grid_chains(draw):
    layers = draw(st.integers(1, 8))
    return tuple(draw(grid_layer(index)) for index in range(layers))


@pytest.mark.parametrize("scheduled", [False, True], ids=["serial", "scheduled"])
@given(timings=grid_chains(), batch=st.integers(1, 4))
def test_closed_form_equals_replay_on_integer_grid(scheduled, timings, batch):
    """Every DRAM tie rule of the closed form matches the event replay
    bit for bit: no tolerance, unlike the uniform-float cases above."""
    schedule = FastSchedule.from_timings(timings)
    closed_form = (
        schedule.scheduled_makespan(batch) if scheduled
        else schedule.serial_makespan(batch)
    )
    assert closed_form == replay_makespan(timings, scheduled, batch)
