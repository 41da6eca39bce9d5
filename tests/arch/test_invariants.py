"""Cross-cutting property tests on the accelerator simulators.

These pin down the physical invariants any defensible cost model must obey,
independent of calibration: non-negativity, monotonicity in work, and
consistency between the accounting views.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import BishopAccelerator, BishopConfig, EnergyModel
from repro.baselines import EdgeGPU, PTBAccelerator
from repro.bundles import BundleSpec
from repro.compiler import (
    lower_matmul_layer,
    plan_stratification,
    unstratified_workload,
)
from repro.model import LayerRecord, ModelTrace


def matmul_record(gen, t, n, d_in, d_out, density):
    spikes = (gen.random((t, n, d_in)) < density).astype(np.float64)
    return LayerRecord(block=0, kind="mlp1", input_spikes=spikes, weight_shape=(d_in, d_out))


def attention_record(gen, t, h, n, d, density):
    def draw():
        return (gen.random((t, h, n, d)) < density).astype(np.float64)

    return LayerRecord(block=0, kind="attention", input_spikes=None,
                       weight_shape=None, q=draw(), k=draw(), v=draw())


workload = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "t": st.integers(1, 8),
        "n": st.integers(1, 24),
        "d_in": st.integers(1, 48),
        "d_out": st.integers(1, 48),
        "density": st.floats(0.0, 0.6),
    }
)


@settings(max_examples=40, deadline=None)
@given(params=workload)
def test_property_bishop_matmul_sane(params):
    gen = np.random.default_rng(params["seed"])
    record = matmul_record(
        gen, params["t"], params["n"], params["d_in"], params["d_out"], params["density"]
    )
    config = BishopConfig(bundle_spec=BundleSpec(2, 2))
    workload = plan_stratification(record.input_spikes, params["d_out"], config)
    layer = lower_matmul_layer(record, workload, config, EnergyModel())
    assert layer.latency_s > 0
    assert layer.energy.total_pj > 0
    assert layer.energy.compute_pj >= 0
    assert 0.0 <= layer.utilization <= 1.0
    assert layer.traffic.bytes() >= 0
    # Latency covers both resource totals.
    assert layer.latency_s >= layer.notes["dram_time_s"] - 1e-15
    assert layer.latency_s >= layer.notes["compute_time_s"] - 1e-15


@settings(max_examples=30, deadline=None)
@given(params=workload)
def test_property_more_spikes_cost_at_least_as_much_energy(params):
    gen = np.random.default_rng(params["seed"])
    base_spikes = (
        gen.random((params["t"], params["n"], params["d_in"])) < params["density"]
    ).astype(np.float64)
    extra = np.maximum(
        base_spikes,
        (gen.random(base_spikes.shape) < 0.15).astype(np.float64),
    )
    config = BishopConfig(bundle_spec=BundleSpec(2, 2))

    def dense_only(spikes):
        record = LayerRecord(0, "mlp1", spikes, (params["d_in"], params["d_out"]))
        workload = unstratified_workload(spikes, config)
        return lower_matmul_layer(record, workload, config, EnergyModel())

    lo, hi = dense_only(base_spikes), dense_only(extra)
    # More firing can only add compute energy and traffic (fixed mapping).
    assert hi.energy.compute_pj >= lo.energy.compute_pj - 1e-9
    assert hi.cycles >= lo.cycles - 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    t=st.integers(1, 6),
    h=st.sampled_from([1, 2, 4]),
    n=st.integers(2, 20),
    d=st.sampled_from([4, 8]),
    density=st.floats(0.0, 0.5),
)
def test_property_all_three_simulators_accept_any_trace(seed, t, h, n, d, density):
    gen = np.random.default_rng(seed)
    trace = ModelTrace(
        "fuzz", t, n, h * d,
        records=[
            matmul_record(gen, t, n, h * d, h * d, density),
            attention_record(gen, t, h, n, d, density),
        ],
    )
    bishop = BishopAccelerator(BishopConfig(bundle_spec=BundleSpec(2, 2))).run_trace(trace)
    ptb = PTBAccelerator().run_trace(trace)
    gpu = EdgeGPU().run_trace(trace)
    for report in (bishop, ptb, gpu):
        assert report.total_latency_s > 0
        assert report.total_energy_pj > 0
        assert len(report.layers) == 2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), density=st.floats(0.05, 0.5))
def test_property_gpu_slowest_bishop_not_slower_than_ptb(seed, density):
    """On any reasonably-sized workload the paper's ordering holds."""
    gen = np.random.default_rng(seed)
    trace = ModelTrace(
        "fuzz", 4, 16, 32,
        records=[
            matmul_record(gen, 4, 16, 32, 64, density),
            attention_record(gen, 4, 2, 16, 16, density),
        ],
    )
    bishop = BishopAccelerator(BishopConfig(bundle_spec=BundleSpec(2, 2))).run_trace(trace)
    ptb = PTBAccelerator().run_trace(trace)
    gpu = EdgeGPU().run_trace(trace)
    assert gpu.total_latency_s > ptb.total_latency_s
    assert ptb.total_latency_s > bishop.total_latency_s * 0.8
