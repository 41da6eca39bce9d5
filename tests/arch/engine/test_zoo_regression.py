"""Engine-vs-analytical regression over the Table-2 model zoo.

For every zoo model, the compiled program replayed alone on a fresh
engine (the callback lanes, with a timeline, so no elision) must agree
with the closed-form InferenceReport's latency and energy within 1%.
The tolerance is deliberately loose relative to the observed agreement
(~1e-15): it documents where event-level modelling may legitimately diverge — under
*contention* (multiple requests, see `repro.serve`) the engine queues on
shared cores, which the closed-form sums cannot express.  A single
uncontended request has no such queueing, so any drift beyond tolerance
means one of the two models changed semantics.
"""

import pytest

from repro.arch import BishopAccelerator, BishopConfig
from repro.bundles import BundleSpec
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import MODEL_ZOO, model_config

from .reference_lanes import replay_inference

TOLERANCE = 0.01


@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_engine_matches_closed_form(model):
    spec = BundleSpec(2, 4)
    # Fixed split ratio instead of the balanced-θ search: the agreement
    # being tested is schedule-level, and this keeps the zoo sweep fast.
    config = BishopConfig(bundle_spec=spec, stratify_dense_fraction=0.5)
    trace = synthetic_trace(model_config(model), PROFILES[model], spec, seed=0)
    report = BishopAccelerator(config).run_trace(trace)

    run = replay_inference(report)
    assert run.timeline
    assert run.makespan_s == pytest.approx(report.total_latency_s, rel=TOLERANCE)
    assert run.energy_pj == pytest.approx(report.total_energy_pj, rel=TOLERANCE)
    # the engine never beats the per-layer critical path
    assert run.makespan_s >= max(l.latency_s for l in report.layers) - 1e-15
