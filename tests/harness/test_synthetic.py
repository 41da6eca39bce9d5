"""Synthetic workload generator tests — the trace statistics must hold."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bundles import BundleSpec, TTBGrid
from repro.harness.fig16 import INTRINSIC_CLUSTER_SPEC
from repro.harness.synthetic import (
    PROFILES,
    DensityProfile,
    synthetic_spikes,
    synthetic_trace,
)
from repro.model import model_config


# Per-record SHA-256 of np.packbits(spikes) (Q, K, V concatenated for
# attention) of synthetic_trace(model3, seed 0, INTRINSIC_CLUSTER_SPEC),
# recorded when the generator still returned float64.  The bool generator
# draws the same values; do not regenerate this file.
DRAWS_GOLDEN = Path(__file__).with_name("synthetic_draws_golden.json")


class TestSyntheticSpikes:
    def test_binary_and_shape(self, rng, spec):
        profile = PROFILES["model1"]
        spikes = synthetic_spikes(10, 64, 96, profile, spec, rng)
        assert spikes.shape == (10, 64, 96)
        assert set(np.unique(spikes)) <= {0.0, 1.0}
        assert spikes.dtype == bool

    def test_mean_density_on_target(self, rng, spec):
        profile = DensityProfile(0.2, 0.1, 0.5)
        spikes = synthetic_spikes(16, 64, 256, profile, spec, rng)
        assert abs(spikes.mean() - 0.2) < 0.05

    def test_silent_feature_fraction(self, rng, spec):
        profile = DensityProfile(0.15, 0.4, 0.5)
        spikes = synthetic_spikes(16, 64, 400, profile, spec, rng)
        silent = (spikes.sum(axis=(0, 1)) == 0).mean()
        assert abs(silent - 0.4) < 0.12

    def test_bundle_clustering(self, rng, spec):
        """TTB density must sit well above spike density (Fig. 6 gap) but
        below the unclustered Bernoulli expectation."""
        profile = DensityProfile(0.10, 0.0, 0.5)
        spikes = synthetic_spikes(16, 64, 128, profile, spec, rng)
        grid = TTBGrid(spikes, spec)
        assert grid.bundle_density > grid.spike_density
        # Unclustered spikes would give 1-(1-p)^volume ≈ 0.57 bundle density.
        assert grid.bundle_density < 0.45

    def test_bsa_variant_sparser(self, rng, spec):
        base = PROFILES["model1"]
        bsa = base.bsa_variant()
        assert bsa.mean_density < base.mean_density
        assert bsa.zero_feature_fraction > base.zero_feature_fraction
        x_base = synthetic_spikes(10, 64, 384, base, spec, rng)
        x_bsa = synthetic_spikes(10, 64, 384, bsa, spec, np.random.default_rng(1))
        assert x_bsa.mean() < x_base.mean()
        assert TTBGrid(x_bsa, spec).bundle_density < TTBGrid(x_base, spec).bundle_density


class TestSyntheticTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(
            model_config("model4"), PROFILES["model4"], BundleSpec(2, 4), seed=0
        )

    def test_record_inventory(self, trace):
        config = model_config("model4")
        assert len(trace.records) == config.num_blocks * 7
        kinds = [r.kind for r in trace.layers(block=0)]
        assert kinds == [
            "proj_q", "proj_k", "proj_v", "attention", "proj_o", "mlp1", "mlp2",
        ]

    def test_shapes_match_config(self, trace):
        config = model_config("model4")
        mlp1 = trace.layers(kind="mlp1")[0]
        assert mlp1.input_spikes.shape == (
            config.timesteps, config.num_tokens, config.embed_dim
        )
        assert mlp1.weight_shape == (config.embed_dim, config.hidden_dim)
        att = trace.layers(kind="attention")[0]
        assert att.q.shape == (
            config.timesteps, config.num_heads, config.num_tokens, config.head_dim
        )

    def test_qk_sparser_than_block_activations(self, trace):
        att = trace.layers(kind="attention")[0]
        proj = trace.layers(kind="proj_q")[0]
        q_density = att.q.mean()
        assert q_density < proj.input_spikes.mean()

    def test_deterministic_by_seed(self):
        spec = BundleSpec(2, 4)
        a = synthetic_trace(model_config("model4"), PROFILES["model4"], spec, seed=3)
        b = synthetic_trace(model_config("model4"), PROFILES["model4"], spec, seed=3)
        np.testing.assert_array_equal(
            a.layers(kind="mlp1")[0].input_spikes,
            b.layers(kind="mlp1")[0].input_spikes,
        )

    def test_records_are_bool(self, trace):
        for record in trace.records:
            arrays = (
                (record.input_spikes,) if record.is_matmul
                else (record.q, record.k, record.v)
            )
            assert all(a.dtype == bool for a in arrays), record.kind

    def test_draws_match_recorded_digests(self):
        trace = synthetic_trace(
            model_config("model3"), PROFILES["model3"], INTRINSIC_CLUSTER_SPEC, seed=0
        )
        got = {}
        for record in trace.records:
            arrays = (
                (record.input_spikes,) if record.is_matmul
                else (record.q, record.k, record.v)
            )
            digest = hashlib.sha256()
            for array in arrays:
                digest.update(np.packbits(array).tobytes())
            got[f"{record.block}/{record.kind}"] = digest.hexdigest()
        assert got == json.loads(DRAWS_GOLDEN.read_text())

    def test_profiles_cover_zoo(self):
        assert set(PROFILES) == {"model1", "model2", "model3", "model4", "model5"}
