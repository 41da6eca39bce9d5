"""Compiled lowering ≡ direct lowering, across the Table-2 zoo.

The compiler's passes only decide *what* to lower — the packing decision,
the stratification plan, the ECP plan — and the lowering functions of
``repro.compiler.lowering`` realize it.  These tests pin that the
pass-driven pipeline reproduces those functions called directly on every
layer, bit for bit, for every zoo model: with the optimization passes
disabled (no skipping, everything dense) and enabled (packing and the
balanced θ_s), with and without ECP.
"""

import pytest

from repro.algo import ECPConfig
from repro.arch import BishopAccelerator, BishopConfig, EnergyModel
from repro.bundles import BundleSpec
from repro.compiler import (
    compile_trace,
    lower_attention_layer,
    lower_matmul_layer,
    materialize_report,
    plan_stratification,
    unstratified_workload,
)
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import MODEL_ZOO, model_config

SPEC = BundleSpec(2, 4)


@pytest.fixture(scope="module")
def zoo_traces():
    return {
        model: synthetic_trace(model_config(model), PROFILES[model], SPEC, seed=0)
        for model in MODEL_ZOO
    }


def direct_report(trace, config, optimized=True, ecp=None):
    """Every layer lowered by calling the lowering functions directly:
    packing and stratification both on (``optimized``) or both off."""
    energy = EnergyModel()
    layers = []
    for record in trace.records:
        if record.is_matmul:
            spikes, out_features = record.input_spikes, record.weight_shape[1]
            if optimized:
                workload = plan_stratification(spikes, out_features, config)
            else:
                workload = unstratified_workload(spikes, config, skip_inactive=False)
            layers.append(
                lower_matmul_layer(
                    record, workload, config, energy, skip_inactive=optimized
                )
            )
        elif record.kind == "attention":
            layers.append(
                lower_attention_layer(
                    record, config, energy, ecp=ecp, skip_inactive=optimized
                )
            )
    return layers


def assert_layers_equal(compiled_layers, direct_layers):
    assert len(compiled_layers) == len(direct_layers)
    for compiled, direct in zip(compiled_layers, direct_layers):
        assert compiled.kind == direct.kind
        assert compiled.latency_s == direct.latency_s
        assert compiled.cycles == direct.cycles
        assert compiled.energy.total_pj == direct.energy.total_pj
        assert compiled.traffic.bytes() == direct.traffic.bytes()


@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
class TestZooEquivalence:
    def test_passes_off_equals_direct_lowering(self, zoo_traces, model):
        """Compiled with no optimization passes == every layer lowered
        directly without skipping, on the dense core, bit-for-bit."""
        trace = zoo_traces[model]
        config = BishopConfig(bundle_spec=SPEC)
        program = compile_trace(trace, config, passes="none")
        assert_layers_equal(
            [stage.report for stage in program.stages],
            direct_report(trace, config, optimized=False),
        )

    def test_all_passes_equal_direct_lowering(self, zoo_traces, model):
        """Compiled with every optimization pass == every layer lowered
        directly with skipping and the balanced θ_s."""
        trace = zoo_traces[model]
        config = BishopConfig(bundle_spec=SPEC)
        program = compile_trace(trace, config, passes="all")
        assert_layers_equal(
            [stage.report for stage in program.stages],
            direct_report(trace, config),
        )


class TestRunTraceContract:
    def test_run_trace_totals_match_direct_lowering(self, zoo_traces):
        trace = zoo_traces["model4"]
        config = BishopConfig(bundle_spec=SPEC)
        report = BishopAccelerator(config).run_trace(trace)
        direct = direct_report(trace, config)
        assert report.total_latency_s == sum(l.latency_s for l in direct)
        assert report.total_energy_pj == sum(l.energy.total_pj for l in direct)
        assert report.program is not None
        assert report.program.scheduled

    def test_run_trace_with_ecp_matches_direct_lowering(self, zoo_traces):
        trace = zoo_traces["model4"]
        config = BishopConfig(bundle_spec=SPEC)
        ecp = ECPConfig(theta_q=6, theta_k=6, spec=SPEC)
        report = BishopAccelerator(config).run_trace(trace, ecp=ecp)
        direct = direct_report(trace, config, ecp=ecp)
        assert report.total_latency_s == sum(l.latency_s for l in direct)
        assert report.total_energy_pj == sum(l.energy.total_pj for l in direct)
        assert "ecp" in report.program.passes

    def test_materialized_report_reuses_stage_reports(self, zoo_traces):
        trace = zoo_traces["model4"]
        program = compile_trace(trace, BishopConfig(bundle_spec=SPEC))
        report = materialize_report(program)
        assert [id(l) for l in report.layers] == [
            id(stage.report) for stage in program.stages
        ]

    def test_materialize_rejects_cache_loaded_programs(self, zoo_traces):
        from repro.compiler import Program

        trace = zoo_traces["model4"]
        program = compile_trace(trace, BishopConfig(bundle_spec=SPEC))
        stripped = Program.from_dict(program.to_dict())
        with pytest.raises(ValueError, match="no stage reports"):
            materialize_report(stripped)
