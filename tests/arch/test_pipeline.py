"""Inter-layer pipelining of a compiled program.

The double-buffered GLBs overlap each layer's compute with its DRAM
streaming (Sec. 6.1), so a :class:`~repro.compiler.ir.Program` answers
three uncontended latencies: the layer-serial ``serial_latency_s``
(``Σ max(compute, dram)``), the depth-1 weight-prefetch makespan the
schedule pass computes with
:func:`~repro.compiler.passes.prefetch_makespan`, and
the ``pipelined_bound_s`` floor ``max(Σ compute, Σ dram)``.  The
prefetch makespan is checked in closed form and on the callback replay.
"""

import pytest

from repro.compiler.ir import Program, Stage, TileOp
from repro.compiler.passes import prefetch_makespan

from .engine.reference_lanes import replay_makespan


def stage(compute: float, weight: float, activation: float = 0.0):
    """A matmul stage: ``compute`` on the dense core, its DRAM time split
    into a (prefetchable) weight and an activation stream."""
    return compute, weight, activation


def program(*stages) -> Program:
    return Program("m", stages=tuple(
        Stage(index, 0, "mlp1", "MLP", ops=(
            TileOp("dense_core", compute),
            TileOp("dram", weight, tag="weight"),
            TileOp("dram", activation, tag="activation"),
        ))
        for index, (compute, weight, activation) in enumerate(stages)
    ))


def closed_form(compiled: Program) -> float:
    return prefetch_makespan(compiled.timings())


def replay(compiled: Program) -> float:
    return replay_makespan(compiled.timings(), scheduled=True)


@pytest.fixture(params=[closed_form, replay], ids=["closed_form", "replay"])
def scheduled(request):
    """The prefetch makespan, in closed form and on the event replay."""
    return request.param


class TestSchedule:
    def test_serial_is_sum_of_maxima(self):
        compiled = program(stage(3.0, 1.0), stage(2.0, 4.0))
        assert compiled.serial_latency_s == pytest.approx(3.0 + 4.0)

    def test_prefetch_overlaps_other_layer_dram(self):
        # layer0: c=3, d=1; layer1: c=2, d=4.  Steady state: max(5, 5) = 5.
        compiled = program(stage(3.0, 1.0), stage(2.0, 4.0))
        assert compiled.pipelined_bound_s == pytest.approx(5.0)
        assert compiled.serial_latency_s == pytest.approx(7.0)

    def test_compute_bound_chain_hides_all_dram(self):
        compiled = program(stage(5.0, 1.0), stage(5.0, 2.0), stage(5.0, 1.0))
        assert compiled.pipelined_bound_s == pytest.approx(15.0)
        # serial already compute-bound
        assert compiled.serial_latency_s == pytest.approx(15.0)

    def test_memory_bound_layers_benefit(self):
        # Alternating compute/memory layers: serial pays both, pipeline hides.
        compiled = program(
            stage(4.0, 0.0), stage(0.5, 4.0), stage(4.0, 0.0), stage(0.5, 4.0)
        )
        assert compiled.pipelined_bound_s < compiled.serial_latency_s
        assert 1 - compiled.pipelined_bound_s / compiled.serial_latency_s > 0.2

    def test_never_worse_than_serial(self):
        compiled = program(stage(1.0, 3.0), stage(2.0, 1.0), stage(0.5, 2.5))
        assert compiled.pipelined_bound_s <= compiled.serial_latency_s + 1e-12

    def test_empty_program(self):
        compiled = program()
        assert compiled.pipelined_bound_s == 0.0
        assert compiled.serial_latency_s == 0.0

    def test_real_bishop_report(self):
        from repro.arch import BishopAccelerator, BishopConfig
        from repro.bundles import BundleSpec
        from repro.harness.synthetic import PROFILES, synthetic_trace
        from repro.model import model_config

        spec = BundleSpec(2, 4)
        trace = synthetic_trace(model_config("model4"), PROFILES["model4"], spec, seed=0)
        run = BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(trace)
        compiled = run.program
        assert 0.0 <= 1 - compiled.pipelined_bound_s / compiled.serial_latency_s < 1.0
        assert compiled.pipelined_bound_s <= run.total_latency_s + 1e-12


class TestScheduledLatency:
    """The depth-1 prefetch schedule (the compiler's scheduling pass)
    sits between the serial makespan and the bound."""

    def test_ordering_invariant(self, scheduled):
        compiled = program(stage(4.0, 0.0), stage(0.5, 4.0), stage(4.0, 0.0))
        assert (
            compiled.pipelined_bound_s - 1e-12
            <= scheduled(compiled)
            <= compiled.serial_latency_s + 1e-12
        )

    def test_alternating_chain_wins(self, scheduled):
        compiled = program(
            stage(4.0, 1.0), stage(1.0, 4.0), stage(4.0, 1.0), stage(1.0, 4.0)
        )
        assert scheduled(compiled) < compiled.serial_latency_s

    def test_compute_bound_chain_is_neutral(self, scheduled):
        compiled = program(stage(5.0, 1.0), stage(5.0, 1.0), stage(5.0, 1.0))
        assert scheduled(compiled) == pytest.approx(compiled.serial_latency_s)

    def test_all_zero_layer_keeps_scheduled_within_serial(self, scheduled):
        # An all-zero layer between an activation-bound and a weight-bound
        # layer once let the depth-1 prefetch run past the serial makespan
        # (22 against 18).
        compiled = program(
            stage(4.0, 0.0, 6.0), stage(0.0, 0.0, 0.0),
            stage(4.0, 0.0, 1.0), stage(7.0, 8.0, 0.0),
        )
        assert compiled.serial_latency_s == pytest.approx(18.0)
        assert (
            compiled.pipelined_bound_s
            <= scheduled(compiled)
            <= compiled.serial_latency_s
        )
        assert scheduled(compiled) == pytest.approx(17.0)

    def test_empty_program(self, scheduled):
        assert scheduled(program()) == 0.0

    def test_run_trace_program_carries_both_makespans(self):
        from repro.arch import BishopAccelerator, BishopConfig
        from repro.bundles import BundleSpec
        from repro.harness.synthetic import PROFILES, synthetic_trace
        from repro.model import model_config

        spec = BundleSpec(2, 4)
        trace = synthetic_trace(
            model_config("model4"), PROFILES["model4"], spec, seed=0
        )
        run = BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(trace)
        # The program's stages are the layers' timing notes: the serial
        # makespan equals the analytic total.
        assert run.program.serial_latency_s == pytest.approx(
            run.total_latency_s, rel=1e-12
        )
        # The schedule pass recorded the prefetch makespan of the very
        # task graph the program emits.
        assert run.program.scheduled_latency_s == pytest.approx(
            closed_form(run.program), rel=1e-12
        )
