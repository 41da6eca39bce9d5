"""Engine-vs-closed-form conformance on *off-paper* chip configurations.

``test_zoo_regression`` pins the agreement at the Table-2 zoo on the
paper's Sec.-6.1 chip; this suite extends the same 1% contract across a
seeded random sample of the DSE design space — the configurations the
explorer actually visits (odd core geometries, tiny GLBs, starved DRAM,
off-default bundle volumes).  A single uncontended request has no
queueing, so the closed form and the callback-lane replay of the compiled
program must agree everywhere in the space, not just at the paper point;
drift beyond tolerance means one of the two models changed semantics for
some configuration class.
"""

import numpy as np
import pytest

from repro.arch import BishopAccelerator
from repro.dse import default_space
from repro.harness.synthetic import DensityProfile, synthetic_trace
from repro.model import SpikingTransformerConfig

from .reference_lanes import replay_inference

TOLERANCE = 0.01
NUM_SAMPLES = 10
SAMPLE_SEED = 20260726

# A small-but-complete workload (two blocks: projections, attention, MLP,
# plus cross-layer scheduling) so the whole sample stays cheap.
MODEL = SpikingTransformerConfig(
    name="offpaper-conformance",
    num_blocks=2,
    timesteps=6,
    num_tokens=24,
    embed_dim=48,
    num_heads=4,
    input_kind="sequence",
)
PROFILE = DensityProfile(
    mean_density=0.18, zero_feature_fraction=0.08, within_bundle=0.45
)


def _sample_points():
    space = default_space()
    rng = np.random.default_rng(SAMPLE_SEED)
    return [space.sample(rng) for _ in range(NUM_SAMPLES)]


@pytest.mark.parametrize(
    "point", _sample_points(),
    ids=[f"sample{i}" for i in range(NUM_SAMPLES)],
)
def test_engine_matches_closed_form_off_paper(point):
    space = default_space()
    config = space.to_config(point)
    trace = synthetic_trace(MODEL, PROFILE, config.bundle_spec, seed=11)
    report = BishopAccelerator(config).run_trace(trace)

    run = replay_inference(report)
    assert run.timeline
    assert run.makespan_s == pytest.approx(report.total_latency_s, rel=TOLERANCE)
    assert run.energy_pj == pytest.approx(report.total_energy_pj, rel=TOLERANCE)
    # The engine never beats the slowest single layer's critical path.
    assert run.makespan_s >= max(l.latency_s for l in report.layers) - 1e-15
