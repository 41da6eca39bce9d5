"""The workloads at tiny sizes: seeded inputs, checks, metrics, tracing."""

import hashlib
import json
import signal
import time

import pytest

from benchkit import layers, measure, yardstick
from benchkit.env import ROOT
from benchkit.golden import compare_digest, load_goldens
from benchkit.workloads import (
    WORKLOADS,
    ClusterSize,
    CompileSize,
    ServeSize,
    make_workload,
)
from repro.arch.engine.kernel import Engine

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "compile_sweep": CompileSize(pairs=(("model4", (2, 4)), ("model4", (4, 14)))),
    "serve_light": ServeSize(requests=40, warmup_requests=10),
    "serve_saturated": ServeSize(requests=40, warmup_requests=10),
    "cluster_diurnal": ClusterSize(
        chips=8, shards=2, requests=60, windows=8, warmup_requests=10
    ),
}


def fingerprint(inputs) -> str:
    digest = hashlib.sha256()
    if isinstance(inputs, list):  # a request stream
        for r in inputs:
            digest.update(repr((r.index, r.model, r.arrival_s, r.tenant, r.priority)).encode())
        return digest.hexdigest()
    digest.update(repr((inputs.model, inputs.volume)).encode())
    for record in inputs.trace.records:
        for array in (record.input_spikes, record.q, record.k, record.v):
            if array is not None:
                digest.update(array.tobytes())
    return digest.hexdigest()


def tiny(name, seed=0):
    return make_workload(name, seed, TINY[name])


def test_every_workload_is_in_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    first, again, other = tiny(name, 3), tiny(name, 3), tiny(name, 4)
    for index in (0, 1):
        assert fingerprint(first.inputs(index)) == fingerprint(again.inputs(index))
        assert fingerprint(first.inputs(index)) != fingerprint(other.inputs(index))
    assert fingerprint(first.inputs(0)) != fingerprint(first.inputs(1))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct_and_prints_the_end_to_end_metrics(name):
    workload = tiny(name)
    workload.setup()
    records = measure.run_timed(workload, seconds=0)
    assert len(records) == workload.ops_per_round
    assert [r.errors for r in records] == [[]] * len(records)
    metrics = measure.end_to_end_metrics(
        [0.5, 0.7, 0.6], records, workload.ops_per_round
    )
    line = measure.result_line(records, metrics, measure.END_TO_END_UNITS)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(records)
    printed = {n: m["unit"] for n, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert metrics["setup_s"] == 0.6
    assert all(v > 0 for v in metrics.values())
    assert all(r.slowdown > 0 for r in records)


def test_rates_scale_host_time_by_the_slowdown():
    records = [
        measure.OpRecord(0, 2.0, items=100, slowdown=2.0),
        measure.OpRecord(1, 1.0, items=100, slowdown=1.0),
    ]
    assert measure.round_rate(records, 1, scaled=False) == 75.0  # median of 50 and 100
    assert measure.round_rate(records, 1) == 100.0
    assert measure.round_rate(records, 2) == 100.0  # 200 items in 2 reference seconds


def test_sampler_subtracts_its_kernels_from_the_time():
    with yardstick.Sampler() as busy:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(busy.ratios) >= 4 and 0 < busy.slowdown < 100
    assert busy.overhead_s > 0
    assert busy.seconds == pytest.approx(0.3 - busy.overhead_s, abs=0.02)
    with yardstick.Sampler() as short:  # ends before the first tick
        pass
    assert len(short.ratios) == len(yardstick.KERNELS)
    assert short.seconds < yardstick.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_prints_the_per_layer_metrics(name, tmp_path):
    original = Engine.schedule
    workload = tiny(name)
    metrics, records = layers.traced_run(workload, 0, tmp_path)
    assert Engine.schedule is original  # wrappers are removed again
    line = measure.result_line(records, metrics, layers.PER_LAYER_UNITS)
    assert line["correct"]
    printed = {n: m["unit"] for n, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert (tmp_path / f"trace-{name}.json").is_file()
    assert json.loads((tmp_path / f"layers-{name}.json").read_text())["metrics"] == metrics
    assert metrics["bench.items_per_ref_s"] > 0
    if name == "compile_sweep":
        assert metrics["compile.pass.stratify_s"] > 0
        assert metrics["arch.balanced_theta.candidates"] > 0
        assert metrics["engine.events_per_req"] == 0
    else:
        assert metrics["serve.profile_compile_s"] > 0
        assert metrics["engine.events_per_req"] > 0
    if name == "cluster_diurnal":
        assert metrics["cluster.windows"] >= TINY[name].windows
        assert metrics["cluster.shard_step_total_s"] > 0
    if name == "serve_saturated":
        assert metrics["serve.scheduler_s"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    counts = [
        name for name, unit in layers.PER_LAYER_UNITS.items() if unit == "count"
    ]
    runs = [layers.traced_run(tiny("serve_saturated"), 0, tmp_path)[0] for _ in range(2)]
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}


def test_missing_wrapper_target_reads_null(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        layers, "TARGETS",
        layers.TARGETS + (("repro.obs.slo", "NoSuchMonitor.observe", "obs.slo_observe", "timer"),),
    )
    metrics, records = layers.traced_run(tiny("serve_light"), 0, tmp_path)
    assert metrics["obs.slo_observe_s"] is None
    assert metrics["engine.events_per_req"] > 0
    assert "NoSuchMonitor.observe not found" in capsys.readouterr().err


class Flaky:
    """A stand-in workload whose first operation raises."""

    name, seed, ops_per_round = "flaky", 0, 1

    def inputs(self, index):
        return index

    def run(self, index):
        if index == 0:
            raise RuntimeError("boom")
        return index

    def items(self, output):
        return 1

    def digest(self, output):
        return {"index": output}

    def check(self, inputs, output):
        return []


def test_a_failing_operation_is_counted_and_the_run_goes_on():
    records = measure.run_timed(Flaky(), seconds=0.05)
    assert len(records) > 1
    assert "boom" in records[0].errors[0]
    assert all(not r.errors for r in records[1:])
    line = measure.result_line(records, {}, {})
    assert (line["correct"], line["failed"]) == (False, 1)


def test_perturbed_output_fails_the_digest_check(monkeypatch):
    workload = tiny("serve_saturated")
    workload.setup()
    records = measure.run_timed(workload, seconds=0)
    goldens = [json.loads(json.dumps(r.digest)) for r in records]
    monkeypatch.setattr(measure, "load_goldens", lambda name, seed: goldens)
    assert measure.verify(workload, records) == len(records)
    assert all(not r.errors for r in records)

    records[0].digest["p99_ms"] *= 1 + 1e-6
    measure.verify(workload, records)
    assert records[0].errors and "p99_ms" in records[0].errors[0]
    assert measure.result_line(records, {}, {})["failed"] == 1


def test_digest_comparison_tolerance():
    golden = {"served": 40, "theta_s": [1.0, 3.0], "p50_ms": 2.5}
    assert compare_digest(golden, {"served": 40, "theta_s": [1.0, 3.0], "p50_ms": 2.5 * (1 + 1e-12)}) == []
    assert compare_digest(golden, {"served": 41, "theta_s": [1.0, 3.0], "p50_ms": 2.5})
    assert compare_digest(golden, {"served": 40, "theta_s": [1.0, 3.0 + 1e-6], "p50_ms": 2.5})
    assert compare_digest(golden, {"served": 40, "theta_s": [1.0], "p50_ms": 2.5})


def test_compile_check_catches_a_wrong_partition():
    workload = tiny("compile_sweep")
    inputs = workload.inputs(0)
    program = workload.run(inputs)
    assert workload.check(inputs, program) == []
    stage = next(s for s in program.stages if "theta_s" in s.annotations)
    stage.annotations["dense_features"] += 1
    assert any("partition" in e for e in workload.check(inputs, program))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_first_golden_op_matches(name):
    goldens = load_goldens(name, 0)
    if not goldens:
        pytest.skip(f"no goldens committed for {name}")
    # No set-up or warm-up first: an op's output must not depend on them.
    workload = make_workload(name, 0)
    inputs = workload.inputs(0)
    assert compare_digest(goldens[0], workload.digest(workload.run(inputs))) == []
