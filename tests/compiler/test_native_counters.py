"""``compile.grid_builds`` and ``compile.theta_candidates``: the compiler's
own work counters, added once per ``PassManager.run``.

They must equal what wrappers around ``TTBGrid.__init__`` and the
balanced-θ scorer see (the perf benchmark's per-layer probe counts the same
way), and the one-grid-per-tensor front end must build no more grids than
the program has stages.  Each matmul layer's dense-core tile activity is
computed at most once, over its ingest grid, and the core models see only
sums of the plan's statistics — no feature slice of a grid.
"""

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.algo import ECPConfig
from repro.arch import BishopConfig, dense_core
from repro.bundles import BundleSpec, TTBGrid
from repro.compiler import compile_trace, lowering
from repro.harness.endtoend import ECP_THETA
from repro.harness.fig16 import INTRINSIC_CLUSTER_SPEC
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import model_config


@pytest.fixture
def metrics():
    obs.disable()
    obs.registry.reset()
    obs.enable(trace=False, metrics=True)
    yield obs.registry
    obs.disable()
    obs.registry.reset()


@pytest.fixture
def wrapped():
    """Count ``TTBGrid.__init__`` calls and balanced-θ candidates from the
    outside."""
    seen = {"candidates": 0}
    balanced_theta = lowering.balanced_theta

    def counted_theta(spikes, spec, dense_time_fn, sparse_time_fn, *args, **kwargs):
        def dense(workload):
            seen["candidates"] += 1
            return dense_time_fn(workload)

        return balanced_theta(spikes, spec, dense, sparse_time_fn, *args, **kwargs)

    with mock.patch.object(
        TTBGrid, "__init__", autospec=True, side_effect=TTBGrid.__init__
    ) as init, mock.patch.object(lowering, "balanced_theta", counted_theta):
        seen["init"] = init
        yield seen


@pytest.mark.parametrize(
    "passes", ["all", "none", "stratify", "packing+ecp", "stratify+ecp"]
)
def test_counters_equal_wrapped_calls(metrics, wrapped, small_trace, passes):
    spec = BundleSpec(2, 4)
    program = compile_trace(
        small_trace, BishopConfig(bundle_spec=spec),
        ecp=ECPConfig(2, 2, spec), passes=passes,
    )
    builds = metrics.counter("compile.grid_builds").value
    candidates = metrics.counter("compile.theta_candidates").value
    assert builds == wrapped["init"].call_count
    assert candidates == wrapped["candidates"]
    assert 0 < builds <= len(program.stages)
    assert (candidates > 0) == ("stratify" in passes or passes == "all")


def test_counters_add_once_per_compilation(metrics, small_trace):
    compile_trace(small_trace, passes="all")
    once = metrics.counter("compile.grid_builds").value
    compile_trace(small_trace, passes="all")
    assert metrics.counter("compile.grid_builds").value == 2 * once


def test_disabled_telemetry_records_nothing(small_trace):
    obs.disable()
    obs.registry.reset()
    compile_trace(small_trace, passes="all")
    assert "compile.grid_builds" not in obs.registry.to_dict().get("counters", {})


@pytest.mark.parametrize("model", ["model1", "model2", "model3", "model4"])
def test_at_most_one_grid_per_stage(metrics, model):
    spec = INTRINSIC_CLUSTER_SPEC
    trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=0)
    theta = ECP_THETA[model]
    program = compile_trace(
        trace, BishopConfig(bundle_spec=spec), ecp=ECPConfig(theta, theta, spec)
    )
    assert metrics.counter("compile.grid_builds").value <= len(program.stages)


@pytest.mark.parametrize(
    "chip, passes",
    [
        ({}, "all"),
        ({"stratify_theta": 2.0}, "all"),
        ({"stratify_dense_fraction": 0.3}, "all"),
        ({}, "packing+ecp+schedule"),
        ({}, "stratify+ecp+schedule"),
    ],
    ids=["balanced", "fixed-theta", "dense-fraction", "stratify-off", "packing-off"],
)
def test_one_tile_activity_per_matmul_stage(small_trace, chip, passes):
    spec = BundleSpec(2, 4)
    tile_activity = dense_core.dense_tile_activity
    masks, core_args = [], []

    def counted_activity(active, config, skip_inactive):
        masks.append(active)
        return tile_activity(active, config, skip_inactive)

    def spy(core):
        def wrapper(*args, **kwargs):
            core_args.append((*args, *kwargs.values()))
            return core(*args, **kwargs)

        return wrapper

    with mock.patch.object(
        TTBGrid, "__init__", autospec=True, side_effect=TTBGrid.__init__
    ) as init, mock.patch.object(
        dense_core, "dense_tile_activity", counted_activity
    ), mock.patch.object(
        lowering, "dense_tile_activity", counted_activity
    ), mock.patch.object(
        lowering, "simulate_dense_core", spy(lowering.simulate_dense_core)
    ), mock.patch.object(
        lowering, "simulate_sparse_core", spy(lowering.simulate_sparse_core)
    ):
        program = compile_trace(
            small_trace, BishopConfig(bundle_spec=spec, **chip),
            ecp=ECPConfig(2, 2, spec), passes=passes,
        )
    matmul = [stage for stage in program.stages if stage.kind != "attention"]
    assert 0 < len(masks) <= len(matmul)
    # Every mask is a view of an ingest grid's activity, never a slice copy.
    grids = [call.args[0] for call in init.call_args_list]
    for active in masks:
        assert any(np.shares_memory(active, grid.active) for grid in grids)
    # One call of each core per matmul stage, on scalar statistics.
    assert len(core_args) == 2 * len(matmul)
    for args in core_args:
        assert not any(isinstance(arg, (TTBGrid, np.ndarray)) for arg in args)
