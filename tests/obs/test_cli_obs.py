"""CLI telemetry surfaces: trace / metrics / analyze / slo / alerts."""

import json

import pytest

from repro import obs
from repro.cli import main


def load_trace(path):
    payload = json.loads(path.read_text())
    return [e for e in payload["traceEvents"] if e.get("ph") == "X"]


class TestTraceCommand:
    def test_writes_perfetto_json_with_layered_spans(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(
            ["trace", "serve_latency_cdf", "--smoke", "--output", str(path)]
        )
        assert code == 0
        spans = load_trace(path)
        assert spans
        layers = {e["name"].split(".")[0] for e in spans}
        assert "runtime" in layers and "engine" in layers
        out = capsys.readouterr().out
        assert "perfetto" in out and str(path) in out

    def test_unknown_experiment(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_default_output_lands_in_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "serve_latency_cdf", "--smoke"]) == 0
        assert load_trace(tmp_path / "TRACE_serve_latency_cdf.json")


class TestMetricsCommand:
    def test_live_run_prints_the_registry(self, capsys):
        assert main(["metrics", "serve_batch_sweep", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "serve.admitted" in out
        assert "histograms:" in out and "runtime.experiment_s" in out

    def test_json_output_parses(self, capsys):
        code = main(["metrics", "serve_latency_cdf", "--smoke", "--json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "counters" in snapshot

    def test_requires_experiment_or_manifest(self, capsys):
        assert main(["metrics"]) == 2
        assert "--manifest" in capsys.readouterr().err

    def test_experiment_and_manifest_together_is_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"metrics": {"counters": {}}}))
        assert main(["metrics", "fig99", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "experiment id" in err and "--manifest" in err and "both" in err

    def test_missing_manifest_file(self, tmp_path, capsys):
        assert main(["metrics", "--manifest", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_manifest_without_metrics_block(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"outcomes": []}))
        assert main(["metrics", "--manifest", str(manifest)]) == 1
        assert "no metrics block" in capsys.readouterr().err


class TestEnvEntry:
    def test_invalid_repro_trace_value_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE", "enabled")
        assert main(["list"]) == 2
        assert "REPRO_TRACE" in capsys.readouterr().err

    def test_env_var_enables_telemetry_for_plain_runs(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_METRICS", "1")
        artifacts = tmp_path / "artifacts"
        assert main([
            "run-all", "--smoke", "--only", "serve_latency_cdf",
            "--artifacts", str(artifacts),
        ]) == 0
        manifest = json.loads((artifacts / "smoke" / "manifest.json").read_text())
        assert "metrics" in manifest


class TestTraceFlags:
    def test_run_trace_writes_artifact(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "table2", "--trace"]) == 0
        assert load_trace(tmp_path / "TRACE_table2.json")

    def test_run_all_trace_records_trace_and_manifest_metrics(
        self, tmp_path, capsys
    ):
        artifacts = tmp_path / "artifacts"
        code = main([
            "run-all", "--smoke", "--only", "serve_latency_cdf",
            "--artifacts", str(artifacts), "--trace",
        ])
        assert code == 0
        assert load_trace(artifacts / "smoke" / "trace.json")
        manifest = json.loads((artifacts / "smoke" / "manifest.json").read_text())
        assert manifest["metrics"]["counters"]
        capsys.readouterr()
        assert (
            main(["metrics", "--manifest", str(artifacts / "smoke" / "manifest.json")])
            == 0
        )
        assert "counters:" in capsys.readouterr().out


class TestCacheStats:
    def test_stats_line_summarizes_both_stores(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert main([
            "run-all", "--smoke", "--only", "serve_latency_cdf",
            "--artifacts", str(artifacts),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--stats", "--artifacts", str(artifacts)]) == 0
        out = capsys.readouterr().out
        stats_lines = [l for l in out.splitlines() if l.startswith("stats:")]
        assert len(stats_lines) == 1
        assert "result 1" in stats_lines[0] and "program" in stats_lines[0]

    def test_without_flag_no_stats_line(self, tmp_path, capsys):
        assert main(["cache", "ls", "--artifacts", str(tmp_path)]) == 0
        assert "stats:" not in capsys.readouterr().out


def trace_doc(inner_dur=40.0):
    return {"traceEvents": [
        {"name": "outer", "cat": "t", "ph": "X", "ts": 0.0, "dur": 100.0,
         "pid": 1, "tid": 1},
        {"name": "inner", "cat": "t", "ph": "X", "ts": 10.0,
         "dur": inner_dur, "pid": 1, "tid": 1},
    ]}


class TestAnalyzeCommand:
    def test_trace_gets_critical_path_and_self_time(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            ["trace", "serve_latency_cdf", "--smoke", "--output", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path [trace]:" in out
        assert "self time" in out

    def test_json_payload_parses(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_doc()))
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "critical_path" in payload and "self_time" in payload
        cp = payload["critical_path"]["trace"]
        assert cp["path_total_s"] == cp["makespan_s"]

    def test_artifact_with_engine_timeline(self, tmp_path, capsys):
        artifact = tmp_path / "run.json"
        artifact.write_text(json.dumps({
            "makespan_s": 2.0,
            "timeline": [
                {"resource": "dense_core", "label": "gemm",
                 "start_s": 0.0, "end_s": 1.5},
                {"resource": "dram", "label": "spill",
                 "start_s": 1.4, "end_s": 2.0},
            ],
        }))
        assert main(["analyze", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "critical path [result]:" in out
        assert "dense_core" in out and "dram" in out

    def test_artifact_id_resolves_under_artifacts_root(self, tmp_path, capsys):
        (tmp_path / "zoo.json").write_text(json.dumps({
            "timeline": [{"resource": "a", "label": "t",
                          "start_s": 0.0, "end_s": 1.0}],
        }))
        assert main(["analyze", "zoo", "--artifacts", str(tmp_path)]) == 0
        assert "critical path [result]:" in capsys.readouterr().out

    def test_unknown_artifact_id_is_exit_2_listing_ids(self, tmp_path, capsys):
        (tmp_path / "table2.json").write_text("{}")
        assert main(["analyze", "nope", "--artifacts", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact 'nope'" in err
        assert "available ids" in err and "table2" in err

    def test_artifact_without_timeline_is_exit_2(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"tokens_per_s": 12.0}))
        assert main(["analyze", str(flat)]) == 2
        assert "no engine timeline" in capsys.readouterr().err

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["analyze", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_diff_ranks_regressions(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(trace_doc(inner_dur=40.0)))
        new.write_text(json.dumps(trace_doc(inner_dur=90.0)))
        assert main(["analyze", str(new), "--diff", str(old)]) == 0
        out = capsys.readouterr().out
        assert "trace diff [old.json -> new.json]:" in out
        assert "inner" in out and "+0.050 ms self" in out

    def test_diff_rejects_non_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(trace_doc()))
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"timeline": []}))
        assert main(["analyze", str(flat), "--diff", str(trace)]) == 2
        assert "Chrome trace" in capsys.readouterr().err

    def test_self_time_needs_a_trace(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"timeline": []}))
        assert main(["analyze", str(flat), "--self-time"]) == 2
        assert "--self-time needs a Chrome trace" in capsys.readouterr().err


class TestSloCommand:
    def artifact(self, tmp_path, with_slo=True):
        doc = {
            "windows": [
                {"index": 0, "start_s": 0.0, "end_s": 0.01,
                 "served": 100, "slo_attainment": 1.0},
                {"index": 1, "start_s": 0.01, "end_s": 0.02,
                 "served": 100, "slo_attainment": 0.5},
            ],
        }
        if with_slo:
            doc["slo"] = {"slo_ms": 5.0, "target": 0.99}
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(doc))
        return path

    def test_replays_saved_slo_block(self, tmp_path, capsys):
        path = self.artifact(tmp_path)
        assert main(["slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slo [cluster.json]: 5 ms @ target 0.99 over 2 windows" in out
        assert "attainment 0.7500" in out
        assert "alert slo_fast_burn fired" in out

    def test_explicit_slo_ms_overrides_missing_block(self, tmp_path, capsys):
        path = self.artifact(tmp_path, with_slo=False)
        assert main(["slo", str(path)]) == 2
        assert "--slo-ms" in capsys.readouterr().err
        assert main(["slo", str(path), "--slo-ms", "5"]) == 0
        assert "attainment 0.7500" in capsys.readouterr().out

    def test_json_payload(self, tmp_path, capsys):
        path = self.artifact(tmp_path)
        assert main(["slo", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"]["attainment"] == 0.75
        assert len(payload["windows"]) == 2
        assert payload["windows"][1]["budget_remaining"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["--slo-ms", "nan"], ["--slo-ms", "inf"], ["--target", "nan"],
    ])
    def test_non_finite_override_is_exit_2(self, tmp_path, argv, capsys):
        path = self.artifact(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["slo", str(path), *argv])
        assert exc.value.code == 2
        assert f"argument {argv[0]}: expected a finite float" in (
            capsys.readouterr().err
        )

    def test_non_finite_saved_slo_is_exit_2(self, tmp_path, capsys):
        path = self.artifact(tmp_path)
        doc = json.loads(path.read_text())
        doc["slo"]["slo_ms"] = float("nan")
        path.write_text(json.dumps(doc))
        assert main(["slo", str(path)]) == 2
        assert "slo_ms must be finite" in capsys.readouterr().err

    def test_artifact_without_windows_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"throughput_rps": 1.0}))
        assert main(["slo", str(path)]) == 2
        assert "no window series" in capsys.readouterr().err

    def test_unknown_artifact_id_is_exit_2(self, tmp_path, capsys):
        assert main(["slo", "nope", "--artifacts", str(tmp_path)]) == 2
        assert "available ids" in capsys.readouterr().err


class TestTraceLimit:
    def test_cap_drops_oldest_and_counts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_METRICS", "1")
        monkeypatch.setenv("REPRO_TRACE_LIMIT", "2")
        path = tmp_path / "trace.json"
        assert main(
            ["trace", "serve_latency_cdf", "--smoke", "--output", str(path)]
        ) == 0
        assert obs.tracer.limit == 2
        assert obs.tracer.dropped > 0
        counters = obs.registry.to_dict()["counters"]
        assert counters["trace.dropped"]["value"] > 0
        # The file keeps simulated-time tracks, but at most 5 live spans.
        live = [
            e for e in load_trace(path)
            if e.get("cat") not in ("engine.timeline", "cluster.window")
        ]
        assert len(live) <= 2

    def test_invalid_limit_is_exit_2_even_with_tracing_off(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TRACE_LIMIT", "lots")
        assert main(["list"]) == 2
        assert "REPRO_TRACE_LIMIT" in capsys.readouterr().err


class TestAlertsFlags:
    def test_run_all_alerts_manifest_block(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        assert main([
            "run-all", "--smoke", "--only", "serve_latency_cdf",
            "--artifacts", str(artifacts), "--alerts",
        ]) == 0
        manifest = json.loads((artifacts / "smoke" / "manifest.json").read_text())
        block = manifest["alerts"]
        assert block["alerts_fired"] == 0
        assert block["rules"] == [] and block["events"] == []

    def test_cluster_alerts_run_on_the_default_single_shard(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "cluster", "--fleet", "standard:2", "--requests", "40",
            "--slo-ms", "5", "--alerts",
        ]) == 0
        assert "incident report" in capsys.readouterr().out
        assert (tmp_path / "INCIDENT_cluster.json").exists()

    def test_cluster_alerts_writes_incident_report(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "cluster", "--fleet", "standard:4", "--shards", "2",
            "--requests", "120", "--arrival", "flash_crowd", "--rho", "3.0",
            "--slo-ms", "5", "--alerts", "--seed", "0",
        ]) == 0
        report = json.loads((tmp_path / "INCIDENT_cluster.json").read_text())
        assert "alerts_fired" in report and "incidents" in report
        assert report["slo"]["slo_ms"] == 5.0
        assert "incident report: INCIDENT_cluster.json" in capsys.readouterr().out
