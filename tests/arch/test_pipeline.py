"""Inter-layer pipelining schedule tests."""

import pytest

from repro.arch import (
    EnergyBreakdown,
    InferenceReport,
    LayerReport,
    TrafficLedger,
    pipeline_schedule,
)


def layer(compute: float, dram: float) -> LayerReport:
    return LayerReport(
        block=0, kind="mlp1", phase="MLP",
        cycles=1.0, latency_s=max(compute, dram),
        energy=EnergyBreakdown(), traffic=TrafficLedger(),
        notes={"compute_time_s": compute, "dram_time_s": dram},
    )


def staged(compute: float, weight: float, activation: float) -> LayerReport:
    """A layer whose DRAM time splits into a weight and an activation
    stream by its traffic ledger's byte shares."""
    traffic = TrafficLedger()
    traffic.add("dram", "weight", weight)
    traffic.add("dram", "activation", activation)
    return LayerReport(
        block=0, kind="mlp1", phase="MLP",
        cycles=1.0, latency_s=max(compute, weight + activation),
        energy=EnergyBreakdown(), traffic=traffic,
        notes={"compute_time_s": compute, "dram_time_s": weight + activation},
    )


def report(*layers) -> InferenceReport:
    return InferenceReport("bishop", "m", layers=list(layers))


class TestSchedule:
    def test_serial_is_sum_of_maxima(self):
        schedule = pipeline_schedule(report(layer(3.0, 1.0), layer(2.0, 4.0)))
        assert schedule.serial_latency_s == pytest.approx(3.0 + 4.0)

    def test_prefetch_overlaps_other_layer_dram(self):
        # layer0: c=3, d=1; layer1: c=2, d=4.  Steady state: max(5, 5) = 5.
        schedule = pipeline_schedule(report(layer(3.0, 1.0), layer(2.0, 4.0)))
        assert schedule.pipelined_latency_s == pytest.approx(5.0)
        assert schedule.serial_latency_s == pytest.approx(7.0)

    def test_compute_bound_chain_hides_all_dram(self):
        schedule = pipeline_schedule(
            report(layer(5.0, 1.0), layer(5.0, 2.0), layer(5.0, 1.0))
        )
        assert schedule.pipelined_latency_s == pytest.approx(15.0)
        assert schedule.savings_fraction == 0.0  # serial already compute-bound

    def test_memory_bound_layers_benefit(self):
        # Alternating compute/memory layers: serial pays both, pipeline hides.
        schedule = pipeline_schedule(
            report(layer(4.0, 0.0), layer(0.5, 4.0), layer(4.0, 0.0), layer(0.5, 4.0))
        )
        assert schedule.pipelined_latency_s < schedule.serial_latency_s
        assert schedule.savings_fraction > 0.2

    def test_never_beats_lower_bound(self):
        schedule = pipeline_schedule(
            report(layer(1.0, 3.0), layer(2.0, 1.0), layer(0.5, 2.5))
        )
        assert schedule.pipelined_latency_s >= schedule.lower_bound_s - 1e-12

    def test_never_worse_than_serial(self):
        schedule = pipeline_schedule(
            report(layer(1.0, 3.0), layer(2.0, 1.0), layer(0.5, 2.5))
        )
        assert schedule.pipelined_latency_s <= schedule.serial_latency_s + 1e-12

    def test_empty_report(self):
        schedule = pipeline_schedule(report())
        assert schedule.pipelined_latency_s == 0.0
        assert schedule.savings_fraction == 0.0

    def test_real_bishop_report(self):
        from repro.arch import BishopAccelerator, BishopConfig
        from repro.bundles import BundleSpec
        from repro.harness.synthetic import PROFILES, synthetic_trace
        from repro.model import model_config

        spec = BundleSpec(2, 4)
        trace = synthetic_trace(model_config("model4"), PROFILES["model4"], spec, seed=0)
        run = BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(trace)
        schedule = pipeline_schedule(run)
        assert 0.0 <= schedule.savings_fraction < 1.0
        assert schedule.pipelined_latency_s <= run.total_latency_s + 1e-12


class TestScheduledLatency:
    """The depth-1 prefetch schedule (the compiler's scheduling pass)
    sits between the serial makespan and the bound."""

    def test_ordering_invariant(self):
        schedule = pipeline_schedule(
            report(layer(4.0, 0.0), layer(0.5, 4.0), layer(4.0, 0.0))
        )
        assert (
            schedule.pipelined_latency_s - 1e-12
            <= schedule.scheduled_latency_s
            <= schedule.serial_latency_s + 1e-12
        )

    def test_alternating_chain_wins(self):
        schedule = pipeline_schedule(
            report(layer(4.0, 1.0), layer(1.0, 4.0), layer(4.0, 1.0), layer(1.0, 4.0))
        )
        assert schedule.scheduled_latency_s < schedule.serial_latency_s
        assert schedule.scheduled_savings_fraction > 0.0

    def test_compute_bound_chain_is_neutral(self):
        schedule = pipeline_schedule(
            report(layer(5.0, 1.0), layer(5.0, 1.0), layer(5.0, 1.0))
        )
        assert schedule.scheduled_latency_s == pytest.approx(
            schedule.serial_latency_s
        )

    def test_all_zero_layer_keeps_scheduled_within_serial(self):
        # An all-zero layer between an activation-bound and a weight-bound
        # layer once let the depth-1 prefetch run past the serial makespan
        # (22 against 18).
        schedule = pipeline_schedule(report(
            staged(4.0, 0.0, 6.0), staged(0.0, 0.0, 0.0),
            staged(4.0, 0.0, 1.0), staged(7.0, 8.0, 0.0),
        ))
        assert schedule.serial_latency_s == pytest.approx(18.0)
        assert (
            schedule.pipelined_latency_s
            <= schedule.scheduled_latency_s
            <= schedule.serial_latency_s
        )
        assert schedule.scheduled_latency_s == pytest.approx(17.0)

    def test_empty_report(self):
        schedule = pipeline_schedule(report())
        assert schedule.scheduled_latency_s == 0.0
        assert schedule.scheduled_savings_fraction == 0.0

    def test_program_backed_report_uses_stage_pairs(self):
        from repro.arch import BishopAccelerator, BishopConfig
        from repro.bundles import BundleSpec
        from repro.harness.synthetic import PROFILES, synthetic_trace
        from repro.model import model_config

        spec = BundleSpec(2, 4)
        trace = synthetic_trace(
            model_config("model4"), PROFILES["model4"], spec, seed=0
        )
        run = BishopAccelerator(BishopConfig(bundle_spec=spec)).run_trace(
            trace, simulate_events=False
        )
        assert run.program is not None
        schedule = pipeline_schedule(run)
        # The program's stage pairs are the layers' timing notes: the
        # serial makespan still equals the analytic total.
        assert schedule.serial_latency_s == pytest.approx(
            run.total_latency_s, rel=1e-12
        )
        # And the stage-pair prefetch schedule agrees with the program's
        # own (five-resource) scheduled makespan: same weight streams
        # moved early, same activation streams pinned.
        assert schedule.scheduled_latency_s == pytest.approx(
            run.program.scheduled_latency_s, rel=1e-12
        )
