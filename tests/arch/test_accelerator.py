"""Full Bishop accelerator tests on real model traces."""

import numpy as np
import pytest

from repro.algo import ECPConfig
from repro.arch import BishopAccelerator, BishopConfig
from repro.bundles import BundleSpec
from repro.compiler import PassConfig
from repro.model import tiny_config

NO_STRATIFY = PassConfig().without("stratify")
NO_PACKING = PassConfig().without("packing")


@pytest.fixture(scope="module")
def trace():
    from repro.model import SpikingTransformer
    from repro.snn import direct_encode

    gen = np.random.default_rng(0)
    config = tiny_config(num_classes=4)
    model = SpikingTransformer(config, seed=7)
    x = direct_encode(gen.random((2, 3, 16, 16)), config.timesteps)
    return model.trace(x)


def accelerator(**kwargs):
    kwargs.setdefault("bundle_spec", BundleSpec(2, 2))
    return BishopAccelerator(BishopConfig(**kwargs))


class TestRunTrace:
    def test_layer_inventory(self, trace):
        report = accelerator().run_trace(trace)
        # 7 simulated layers per block (tokenizer/head are out of scope).
        assert len(report.layers) == trace.num_blocks * 7
        assert report.accelerator == "bishop"

    def test_totals_positive(self, trace):
        report = accelerator().run_trace(trace)
        assert report.total_latency_s > 0
        assert report.total_energy_pj > 0
        assert report.edp > 0

    def test_by_phase_covers_grid(self, trace):
        report = accelerator().run_trace(trace)
        cells = report.by_phase()
        assert set(phase for _, phase in cells) == {"P1", "ATN", "P2", "MLP"}
        total = sum(cell.latency_s for cell in cells.values())
        assert total == pytest.approx(report.total_latency_s)

    def test_energy_breakdown_sums(self, trace):
        report = accelerator().run_trace(trace)
        for layer in report.layers:
            e = layer.energy
            assert e.total_pj == pytest.approx(
                e.compute_pj + e.memory_pj + e.spike_gen_pj + e.static_pj
            )


class TestLatencySemantics:
    def test_latency_is_max_of_compute_and_dram(self, trace):
        report = accelerator().run_trace(trace)
        for layer in report.layers:
            assert layer.latency_s == pytest.approx(
                max(layer.notes["compute_time_s"], layer.notes["dram_time_s"])
            )

    def test_parallel_cores_bounded_by_max(self, trace):
        report = accelerator().run_trace(trace)
        for layer in report.layers:
            if layer.phase != "ATN":
                core = max(layer.unit_cycles["dense"], layer.unit_cycles["sparse"])
                assert layer.cycles == pytest.approx(
                    core + layer.unit_cycles["spike_gen"]
                )


class TestAblations:
    def test_stratifier_off_routes_everything_dense(self, trace):
        report = accelerator().run_trace(trace, passes=NO_STRATIFY)
        for layer in report.layers:
            if layer.phase != "ATN":
                assert layer.notes["dense_fraction"] == 1.0
                assert layer.unit_cycles["sparse"] == 0.0

    def test_stratifier_helps_on_matmuls(self, trace):
        hetero = accelerator().run_trace(trace)
        dense_only = accelerator().run_trace(trace, passes=NO_STRATIFY)

        def matmul_latency(report):
            return sum(l.latency_s for l in report.layers if l.phase != "ATN")

        assert matmul_latency(hetero) <= matmul_latency(dense_only) * 1.001

    def test_explicit_theta_respected(self, trace):
        report = accelerator(stratify_theta=0.0).run_trace(trace)
        for layer in report.layers:
            if layer.phase != "ATN":
                assert layer.notes["theta_s"] == 0.0

    def test_fraction_policy(self, trace):
        report = accelerator(stratify_dense_fraction=1.0).run_trace(trace)
        for layer in report.layers:
            if layer.phase != "ATN":
                assert layer.notes["dense_fraction"] == 1.0

    def test_skip_off_increases_energy(self, trace):
        skipping = accelerator().run_trace(trace)
        no_skip = accelerator().run_trace(trace, passes=NO_PACKING)
        assert no_skip.total_energy_pj >= skipping.total_energy_pj

    def test_ecp_reduces_attention_only(self, trace):
        base = accelerator().run_trace(trace)
        spec = BundleSpec(2, 2)
        pruned = accelerator().run_trace(
            trace, ecp=ECPConfig(theta_q=2, theta_k=2, spec=spec)
        )
        assert pruned.attention_latency_s() <= base.attention_latency_s()
        base_matmul = base.total_latency_s - base.attention_latency_s()
        pruned_matmul = pruned.total_latency_s - pruned.attention_latency_s()
        assert pruned_matmul == pytest.approx(base_matmul)


class TestTrafficAccounting:
    def test_dram_weights_once_per_layer(self, trace):
        report = accelerator().run_trace(trace, passes=NO_PACKING)
        for layer in report.layers:
            if layer.phase != "ATN":
                record = next(
                    r for r in trace.records
                    if r.block == layer.block and r.kind == layer.kind
                )
                d_in, d_out = record.weight_shape
                assert layer.traffic.bytes(level="dram", kind="weight") == d_in * d_out

    def test_weight_skip_reduces_dram(self, trace):
        skipping = accelerator().run_trace(trace)
        no_skip = accelerator().run_trace(trace, passes=NO_PACKING)
        assert skipping.traffic_bytes(level="dram", kind="weight") <= (
            no_skip.traffic_bytes(level="dram", kind="weight")
        )

    def test_memory_share_report(self, trace):
        from repro.arch import EnergyModel

        report = accelerator().run_trace(trace)
        shares = report.memory_energy_share_by_kind(EnergyModel())
        assert all(0.0 <= v <= 1.0 for v in shares.values())
        assert "weight" in shares and "activation" in shares
