"""The closed-form θ_s scorer pinned to the per-candidate simulator loop.

``plan_stratification`` scores each θ_s candidate from two per-feature
statistics of one bundle grid.  The oracle is the loop it replaced:
``balanced_theta`` with callbacks that slice the candidate's partition out
of the spikes, count its statistics from the slice, and run
:func:`simulate_dense_core` / :func:`simulate_sparse_core` on them.  Every
candidate's dense and sparse score must equal the oracle's with ``==``,
and so must the chosen θ_s.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import BishopConfig
from repro.bundles import BundleSpec
from repro.compiler import lowering
from repro.harness.fig16 import DEFAULT_VOLUMES, INTRINSIC_CLUSTER_SPEC
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import model_config

from ..arch.core_stats import dense_core_on, sparse_core_on


def oracle_theta(spikes, out_features, config, skip_inactive):
    """θ_s from the per-candidate simulator loop."""
    return lowering.balanced_theta(
        spikes,
        config.bundle_spec,
        lambda w: dense_core_on(
            spikes[:, :, w.dense_features], out_features, config, skip_inactive
        ).cycles,
        lambda w: sparse_core_on(
            spikes[:, :, w.sparse_features], out_features, config
        ).cycles,
    )


def scorer_mismatches(
    spikes, out_features, config, skip_inactive
) -> tuple[int, list]:
    """``(candidates scored, mismatches)`` of one layer's balanced θ_s.

    Runs ``plan_stratification`` with its scorers spied on, then re-scores
    every candidate partition with the simulators.
    """
    scored = []
    balanced_theta = lowering.balanced_theta

    def spy(spikes_, spec, dense_fn, sparse_fn, *args, **kwargs):
        def dense(workload):
            value = dense_fn(workload)
            scored.append(("dense", workload, value))
            return value

        def sparse(workload):
            value = sparse_fn(workload)
            scored.append(("sparse", workload, value))
            return value

        return balanced_theta(spikes_, spec, dense, sparse, *args, **kwargs)

    with mock.patch.object(lowering, "balanced_theta", spy):
        workload = lowering.plan_stratification(
            spikes, out_features, config, skip_inactive
        )
    mismatches = []
    for core, candidate, value in scored:
        if core == "dense":
            want = dense_core_on(
                spikes[:, :, candidate.dense_features], out_features, config,
                skip_inactive,
            ).cycles
        else:
            want = sparse_core_on(
                spikes[:, :, candidate.sparse_features], out_features, config
            ).cycles
        if value != want:
            mismatches.append((core, candidate.theta, value, want))
    want_theta = oracle_theta(spikes, out_features, config, skip_inactive)
    if workload.theta != want_theta:
        mismatches.append(("theta", None, workload.theta, want_theta))
    return sum(core == "dense" for core, _, _ in scored), mismatches


@st.composite
def layers(draw):
    """Ragged spikes with per-feature densities (all-zero and one-feature
    inputs included), a chip whose tiling the input does not divide, and the
    bundle-packing decision."""
    t, n = draw(st.integers(1, 9)), draw(st.integers(1, 17))
    d = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    gen = np.random.default_rng(seed)
    density = draw(st.sampled_from(["zero", "mixed", "uniform"]))
    if density == "zero":
        spikes = np.zeros((t, n, d))
    else:
        rates = gen.random(d) * 0.6 if density == "mixed" else np.full(d, 0.3)
        spikes = (gen.random((t, n, d)) < rates).astype(np.float64)
    config = BishopConfig(
        bundle_spec=BundleSpec(draw(st.integers(1, 4)), draw(st.integers(1, 5))),
        dense_rows=draw(st.integers(1, 6)),
        dense_cols=draw(st.sampled_from([1, 7, 32])),
        sparse_units=draw(st.sampled_from([1, 3, 128])),
        spikes_per_cycle=draw(st.integers(1, 10)),
        psum_regs_per_pe=draw(st.integers(1, 16)),
    )
    out_features = draw(st.integers(0, 70))
    return spikes, out_features, config, draw(st.booleans())


@settings(max_examples=150)
@given(layers())
def test_closed_form_scores_equal_simulators(layer):
    candidates, mismatches = scorer_mismatches(*layer)
    assert candidates > 0
    assert mismatches == []


@pytest.mark.parametrize("skip_inactive", [True, False])
def test_chunked_bundles_and_partial_tiles(skip_inactive):
    """``psum_regs_per_pe < volume`` (chunks > 1) and ``out_features`` not a
    multiple of ``dense_cols``, on a layer with a spread of densities."""
    gen = np.random.default_rng(3)
    spikes = (gen.random((7, 30, 40)) < gen.random(40) * 0.5).astype(np.float64)
    config = BishopConfig(
        bundle_spec=BundleSpec(4, 7),
        psum_regs_per_pe=5,
    )
    candidates, mismatches = scorer_mismatches(spikes, 45, config, skip_inactive)
    assert candidates > 1
    assert mismatches == []


@pytest.mark.slow
def test_zoo_volume_sweep_has_no_mismatches():
    """model1–4 × every Fig.-16 volume × packing on/off, every matmul layer."""
    layers_checked, mismatches = 0, []
    for model in ("model1", "model2", "model3", "model4"):
        trace = synthetic_trace(
            model_config(model), PROFILES[model], INTRINSIC_CLUSTER_SPEC, seed=0
        )
        records = [r for r in trace.records if r.is_matmul]
        for volume in DEFAULT_VOLUMES:
            for packing in (True, False):
                config = BishopConfig(bundle_spec=BundleSpec(*volume))
                for record in records:
                    _, found = scorer_mismatches(
                        record.input_spikes, record.weight_shape[1], config,
                        packing,
                    )
                    layers_checked += 1
                    mismatches += [(model, volume, packing, *m) for m in found]
    assert layers_checked == 1944
    assert mismatches == [], f"{len(mismatches)} mismatches: {mismatches[:5]}"
