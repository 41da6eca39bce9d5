"""The compiler's closed forms vs event replay: the uncontended makespans
of a compiled program must agree with the callback replays to float
precision.

``src`` answers every uncontended single-request makespan in closed
form: the layer-serial ``Σ max(compute, dram)`` (the compiled program's
``serial_latency_s``; :func:`serial_closed_form` at any batch) and the
schedule pass's depth-1 prefetch recurrence,
:func:`~repro.compiler.passes.prefetch_makespan`, at batch 1.  The
oracles of :mod:`tests.arch.engine.reference_lanes`
(:func:`replay_makespan`, :func:`replay_inference`) replay the same
program with the callback lanes on a fresh engine.  These tests pin the
two against each other on the zoo, on randomized task graphs (including
the degenerate shapes: zero-compute, zero-weight, zero-activation, empty
chains), and ``==`` on integer-grid timings, where every sum is exact
and each DRAM tie rule must match bit for bit.  A prefetch schedule at
batch > 1 has no closed form: the replay is pinned there to the
generator reference lanes.
"""

import numpy as np
import pytest

from repro.arch import BishopAccelerator, BishopConfig
from repro.arch.engine import LayerTiming
from repro.bundles import BundleSpec
from repro.compiler.passes import prefetch_makespan
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import MODEL_ZOO, model_config

from ..arch.engine.reference_lanes import (
    reference_makespan,
    replay_inference,
    replay_makespan,
    serial_closed_form,
)

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
        fast = serial_closed_form(timings, batch)
        kernel = replay_makespan(timings, scheduled=False, batch=batch)
        assert fast == pytest.approx(kernel, **APPROX)

    @pytest.mark.parametrize("seed", range(8))
    def test_scheduled_matches_kernel_on_random_graphs(self, seed):
        timings = random_timings(np.random.default_rng(100 + seed), 12)
        fast = prefetch_makespan(timings)
        kernel = replay_makespan(timings, scheduled=True)
        assert fast == pytest.approx(kernel, **APPROX)

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_scheduled_replay_matches_reference_lanes(self, seed):
        timings = random_timings(np.random.default_rng(100 + seed), 12)
        assert replay_makespan(timings, scheduled=True, batch=3) == (
            reference_makespan(timings, scheduled=True, batch=3)
        )

    def test_empty_chain(self):
        assert prefetch_makespan(()) == 0.0
        assert replay_makespan(()) == 0.0

    def test_scheduled_between_serial_and_pipelined_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            timings = random_timings(rng, 10)
            serial = serial_closed_form(timings)
            scheduled = prefetch_makespan(timings)
            bound = max(
                sum(t.compute_s for t in timings),
                sum(t.dram_s() for t in timings),
            )
            assert scheduled <= serial * (1 + 1e-12) + 1e-15
            assert scheduled >= bound * (1 - 1e-12) - 1e-15

    def test_zoo_program_matches_kernel(self):
        from repro.compiler import compile_model

        program = compile_model("model4", BishopConfig(bundle_spec=BundleSpec(2, 4)))
        timings = program.timings()
        assert program.serial_latency_s == pytest.approx(
            replay_makespan(timings), **APPROX
        )
        assert program.scheduled_latency_s == prefetch_makespan(timings)
        assert prefetch_makespan(timings) == pytest.approx(
            replay_makespan(timings, scheduled=True), **APPROX
        )
        for batch in (1, 2, 4):
            assert serial_closed_form(timings, batch) == pytest.approx(
                replay_makespan(timings, scheduled=False, batch=batch),
                **APPROX,
            )


class TestServingProfileEquivalence:
    """The timings the serving layer replays (``request_profile``) agree
    with the kernel to a 1e-9 relative bound for every zoo model and pass
    set."""

    @pytest.mark.parametrize("passes", ["all", "packing+stratify+ecp", "none"])
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_makespans_match_kernel(self, model, passes):
        from repro.serve import request_profile

        timings = request_profile(model, passes=passes).timings
        kernel_serial = replay_makespan(timings, scheduled=False)
        kernel_scheduled = replay_makespan(timings, scheduled=True)
        fast_serial = serial_closed_form(timings)
        assert abs(fast_serial - kernel_serial) <= 1e-9 * kernel_serial
        assert abs(prefetch_makespan(timings) - kernel_scheduled) <= (
            1e-9 * kernel_scheduled
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
        for batch in (1, 4):
            kernel_serial = replay_makespan(
                timings, scheduled=False, batch=batch
            )
            assert abs(serial_closed_form(timings, batch) - kernel_serial) <= (
                1e-9 * kernel_serial
            )
        kernel_scheduled = replay_makespan(timings, scheduled=True)
        assert abs(prefetch_makespan(timings) - kernel_scheduled) <= (
            1e-9 * kernel_scheduled
        )


class TestReplayEquivalenceZoo:
    """The compiled program of each zoo report, replayed on the callback
    lanes, reproduces the report's closed-form latency, energy and
    per-unit busy time."""

    @pytest.fixture(scope="class", params=sorted(MODEL_ZOO))
    def report(self, request):
        model = request.param
        spec = BundleSpec(2, 4)
        trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=0)
        return BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(trace)

    def test_makespan_energy_and_busy_match(self, report):
        run = replay_inference(report)
        assert run.makespan_s == pytest.approx(report.total_latency_s, **APPROX)
        assert run.makespan_s == pytest.approx(
            report.program.serial_latency_s, **APPROX
        )
        assert run.energy_pj == pytest.approx(report.total_energy_pj, **APPROX)
        timings = report.program.timings()
        busy = {
            "dense_core": sum(t.dense_s for t in timings),
            "sparse_core": sum(t.sparse_s for t in timings),
            "attention_core": sum(t.attention_s for t in timings),
            "spike_gen": sum(t.spike_gen_s for t in timings),
            "dram": sum(t.dram_s() for t in timings),
        }
        assert set(run.resource_stats) == set(busy)
        for name, value in busy.items():
            stats = run.resource_stats[name]
            assert stats.busy_s == pytest.approx(value, **APPROX), name
            assert stats.wait_s == 0.0, name


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


@given(timings=grid_chains(), batch=st.integers(1, 4))
def test_serial_closed_form_equals_replay_on_integer_grid(timings, batch):
    """The layer-serial sum is the event replay's makespan bit for bit:
    no tolerance, unlike the uniform-float cases above."""
    assert serial_closed_form(timings, batch) == replay_makespan(
        timings, False, batch
    )


@given(timings=grid_chains())
def test_prefetch_makespan_equals_replay_on_integer_grid(timings):
    """Every DRAM tie rule of the prefetch recurrence matches the event
    replay bit for bit."""
    assert prefetch_makespan(timings) == replay_makespan(timings, True)
