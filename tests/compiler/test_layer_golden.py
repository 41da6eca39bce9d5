"""Matmul lowering pinned to recorded results, compared with ``==``.

``layer_golden.json`` records, per matmul layer of each scenario, the θ_s
the stratify pass chose, ``len(R_D)``, a hash of ``R_D`` and the layer's
cycles and latency, plus a hash of every :class:`LayerReport` field
(cycles, latency, energy breakdown, traffic ledger, unit cycles,
utilization, notes).  Floats enter the hash through ``repr``, so any
change to θ_s balancing, the dense/sparse partition or the core models
shows up as an exact mismatch — there is no tolerance.

Scenarios: model5 at volume 2×4, model1 at volumes 1×2 and 4×14, the
Fig.-15 dense-fraction targets (model3), and the pass sets
``packing+stratify+ecp``, ``stratify+ecp`` (stratify without inactive-
bundle skipping) and ``none``.

Regenerate only for a change meant to alter lowered results::

    PYTHONPATH=src python tests/compiler/test_layer_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algo.ecp import ECPConfig
from repro.arch import BishopConfig
from repro.bundles import BundleSpec
from repro.compiler import compile_trace
from repro.compiler import passes as passes_module
from repro.harness.endtoend import ECP_THETA
from repro.harness.fig16 import INTRINSIC_CLUSTER_SPEC
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import model_config

GOLDEN = Path(__file__).with_name("layer_golden.json")
FIG15_FRACTIONS = (0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95)
STAGE_SERIAL = "packing+stratify+ecp"

# name -> (model, volume, passes, stratify_dense_fraction)
SCENARIOS = {
    f"{model}@{bs_t}x{bs_n}/{passes}": (model, (bs_t, bs_n), passes, None)
    for model, bs_t, bs_n, passes in (
        ("model5", 2, 4, STAGE_SERIAL),
        ("model5", 2, 4, "none"),
        ("model1", 1, 2, STAGE_SERIAL),
        ("model1", 1, 2, "none"),
        ("model1", 4, 14, STAGE_SERIAL),
        ("model1", 4, 14, "stratify+ecp"),
    )
}
SCENARIOS.update(
    (
        f"model3@2x4/{STAGE_SERIAL}/dense_fraction={f}",
        ("model3", (2, 4), STAGE_SERIAL, f),
    )
    for f in FIG15_FRACTIONS
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_fields(report) -> dict:
    energy = report.energy
    return {
        "block": report.block,
        "kind": report.kind,
        "phase": report.phase,
        "cycles": report.cycles,
        "latency_s": report.latency_s,
        "energy": {
            "compute_pj": energy.compute_pj,
            "memory_pj": energy.memory_pj,
            "spike_gen_pj": energy.spike_gen_pj,
            "static_pj": energy.static_pj,
            "memory_by_kind_pj": dict(energy.memory_by_kind_pj),
        },
        "traffic": {
            f"{level}/{kind}": value
            for (level, kind), value in report.traffic.entries.items()
        },
        "unit_cycles": dict(report.unit_cycles),
        "utilization": report.utilization,
        "notes": dict(report.notes),
    }


def _layers(name: str) -> list:
    """``[θ_s, len(R_D), hash(R_D), cycles, latency_s, hash(report)]`` per
    matmul layer, in compile order."""
    model, volume, passes, fraction = SCENARIOS[name]
    spec = BundleSpec(*volume)
    trace = synthetic_trace(
        model_config(model), PROFILES[model], INTRINSIC_CLUSTER_SPEC, seed=0
    )
    lowered = []
    original = passes_module.lower_matmul_layer

    def spy(record, workload, config, energy, **kwargs):
        report = original(record, workload, config, energy, **kwargs)
        lowered.append((workload, report))
        return report

    theta = ECP_THETA[model]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(passes_module, "lower_matmul_layer", spy)
        compile_trace(
            trace,
            BishopConfig(bundle_spec=spec, stratify_dense_fraction=fraction),
            ecp=ECPConfig(theta, theta, spec),
            passes=passes,
        )
    rows = []
    for workload, report in lowered:
        dense = np.asarray(workload.dense_features, dtype=np.int64)
        rows.append([
            float(workload.theta),
            int(len(dense)),
            hashlib.sha256(dense.tobytes()).hexdigest()[:16],
            float(report.cycles),
            float(report.latency_s),
            _digest(_report_fields(report)),
        ])
    return rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    assert GOLDEN.stat().st_size < 50_000


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_layers_match_golden(name, golden):
    rows = _layers(name)
    assert len(rows) == len(golden[name])
    for index, (got, want) in enumerate(zip(rows, golden[name])):
        assert got == want, f"{name} matmul layer {index}: {got} != {want}"


if __name__ == "__main__":
    captured = {name: _layers(name) for name in sorted(SCENARIOS)}
    GOLDEN.write_text(json.dumps(captured, indent=0) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
