"""A matmul layer without input features plans and lowers to an empty
partition under every θ_s policy, and the balanced search scores nothing."""

import numpy as np
import pytest

from repro.arch import BishopConfig
from repro.arch.energy import EnergyModel
from repro.compiler.lowering import lower_matmul_layer, plan_stratification
from repro.model.trace import LayerRecord

POLICIES = {
    "balanced": {},
    "fixed": {"stratify_theta": 1.0},
    "fraction": {"stratify_dense_fraction": 0.5},
}


@pytest.mark.parametrize("policy", POLICIES)
def test_empty_layer_plans_and_lowers(policy):
    spikes = np.zeros((4, 8, 0), bool)
    config = BishopConfig(**POLICIES[policy])
    plan = plan_stratification(spikes, 16, config)
    assert plan.num_features == 0
    assert plan.theta_candidates == 0
    if policy != "fixed":
        assert plan.theta == 0.0

    record = LayerRecord(block=0, kind="mlp1", input_spikes=spikes, weight_shape=(0, 16))
    report = lower_matmul_layer(record, plan, config, EnergyModel())
    assert report.unit_cycles["dense"] == report.unit_cycles["sparse"] == 0.0
    assert report.notes["sparse_active_pairs"] == 0.0
    assert report.notes["alive_features"] == 0.0
    assert np.isfinite(report.latency_s)
