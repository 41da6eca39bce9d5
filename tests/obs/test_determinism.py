"""Trace determinism: seeded runs re-traced must match structurally.

Two traced runs of the same seeded experiment produce identical span
*structure* — names, categories, nesting, attributes — with only the
clock readings differing.  Caches are warmed first so both traced runs
see the same cache states (a cold first run would legitimately record
``cache="miss"`` where the second records ``cache="hit"``).
"""

import json
import os

from repro import obs
from repro.harness import get_experiment
from repro.runtime import ExperimentRunner

EXPERIMENT = "serve_latency_cdf"
PARAMS = dict(get_experiment(EXPERIMENT).smoke_params)


def traced_structure():
    obs.enable()  # fresh=True: clears the previous run's buffers
    outcome = ExperimentRunner(artifacts_root=None).run(EXPERIMENT, PARAMS)
    assert outcome.ok, outcome.error
    return obs.tracer.structure()


class TestStructuralDeterminism:
    def test_two_warm_runs_trace_identically(self):
        ExperimentRunner(artifacts_root=None).run(EXPERIMENT, PARAMS)  # warm
        first = traced_structure()
        second = traced_structure()
        assert first, "traced run recorded no spans"
        assert first == second

    def test_trace_covers_runtime_and_engine_layers(self):
        structure = traced_structure()
        layers = {name.split(".")[0] for name, *_ in structure}
        assert "runtime" in layers and "engine" in layers

    def test_counters_are_deterministic_across_runs(self):
        # A serving experiment: its admission/batch counters are a pure
        # function of the seeded workload, unlike wall-clock histograms.
        name, params = "serve_batch_sweep", {
            "num_requests": 40, "batch_sizes": "1+4",
        }
        runner = ExperimentRunner(artifacts_root=None)
        runner.run(name, params)  # warm
        counters = []
        for _ in range(2):
            obs.enable()
            assert runner.run(name, params).ok
            counters.append(obs.registry.to_dict()["counters"])
        assert counters[0]["serve.admitted"]["value"] == 80
        assert counters[0] == counters[1]


class TestExportRoundTrip:
    def test_written_trace_round_trips_through_json_loads(self, tmp_path):
        traced_structure()
        path = tmp_path / "trace.json"
        payload = obs.tracer.write(path)
        loaded = json.loads(path.read_text())
        assert loaded == payload
        assert [e for e in loaded["traceEvents"] if e.get("ph") == "X"]


class TestWorkerTransport:
    def test_pool_workers_ship_spans_and_metrics_back(self, tmp_path):
        obs.enable()
        runner = ExperimentRunner(tmp_path, jobs=2, force=True)
        summary = runner.run_all(only=["fig17", "fig3"])
        assert summary.ok
        experiment_spans = [
            s for s in obs.tracer.spans if s.name == "runtime.experiment"
        ]
        assert {s.args.get("experiment") for s in experiment_spans} == {
            "fig17",
            "fig3",
        }
        # The spans were recorded inside the worker processes.
        assert any(s.pid != os.getpid() for s in experiment_spans)
        counters = obs.registry.to_dict()["counters"]
        assert counters.get("cache.result.put", {}).get("value") == 2
        histograms = obs.registry.to_dict()["histograms"]
        assert histograms["runtime.experiment_s"]["count"] == 2

    def test_manifest_records_the_merged_registry(self, tmp_path):
        obs.enable()
        runner = ExperimentRunner(tmp_path, jobs=1, force=True)
        summary = runner.run_all(only=["fig17"])
        assert summary.ok
        manifest = json.loads(
            (tmp_path / "manifest.json").read_text()
        )
        assert "metrics" in manifest
        assert manifest["metrics"]["counters"]["cache.result.put"]["value"] == 1
