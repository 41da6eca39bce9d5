"""CLI tests (``python -m repro``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out

    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "model3" in out and "N=196" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model1"]["timesteps"] == 10

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run", "fig17", "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["bishop_totals"]["area_mm2"] == pytest.approx(2.96, abs=0.01)

    def test_run_with_param_override(self, capsys):
        assert main(["run", "fig6", "--param", "seed=1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"without_bsa", "with_bsa"}

    def test_run_rejects_unknown_param(self, capsys):
        assert main(["run", "fig6", "--param", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_run_rejects_multi_valued_param(self, capsys):
        assert main(["run", "fig6", "--param", "seed=1,2"]) == 2
        assert "use `sweep`" in capsys.readouterr().err


class TestRunAll:
    def test_runs_subset_and_writes_manifest(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        argv = ["run-all", "--only", "table2,fig17", "--jobs", "1",
                "--artifacts", str(artifacts)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cache hits, 2 runs, 0 errors" in out
        manifest = json.loads((artifacts / "manifest.json").read_text())
        assert {r["experiment"] for r in manifest["runs"]} == {"table2", "fig17"}
        assert json.loads((artifacts / "table2.json").read_text())["model1"]

        # second invocation replays both results from the cache
        assert main(argv) == 0
        assert "2 cache hits, 0 runs" in capsys.readouterr().out

    def test_force_ignores_cache(self, tmp_path, capsys):
        argv = ["run-all", "--only", "fig17", "--artifacts", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        assert "0 cache hits, 1 runs" in capsys.readouterr().out

    def test_forced_smoke_manifest_times_every_run(self, tmp_path, capsys):
        # CI's wall-time bound sums `runs[].duration_s` of a forced smoke
        # run; a warm cache records 0.0 per hit, so --force must re-time all
        argv = ["run-all", "--smoke", "--only", "table2,fig17",
                "--artifacts", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        manifest = tmp_path / "smoke" / "manifest.json"
        warm = json.loads(manifest.read_text())["runs"]
        assert [run["duration_s"] for run in warm] == [0.0, 0.0]
        capsys.readouterr()

        assert main(argv + ["--force"]) == 0
        assert "0 cache hits, 2 runs, 0 errors" in capsys.readouterr().out
        runs = json.loads(manifest.read_text())["runs"]
        assert {run["experiment"] for run in runs} == {"table2", "fig17"}
        for run in runs:
            assert run["status"] == "ok"
            assert run["cache_hit"] is False
            assert run["duration_s"] > 0.0

    def test_unknown_only_id(self, tmp_path, capsys):
        argv = ["run-all", "--only", "fig99", "--artifacts", str(tmp_path)]
        assert main(argv) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRunAllJobs:
    def test_jobs_zero_resolves_to_cpu_count(self, tmp_path, capsys):
        import os

        argv = ["run-all", "--only", "table2", "--jobs", "0",
                "--artifacts", str(tmp_path)]
        assert main(argv) == 0
        expected = os.cpu_count() or 1
        assert f"with {expected} job(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run-all", "sweep"])
    def test_negative_jobs_is_a_clean_usage_error(self, command, tmp_path, capsys):
        argv = [command, "--jobs", "-1", "--artifacts", str(tmp_path)]
        if command == "sweep":
            argv = ["sweep", "fig6", "--param", "seed=0"] + argv[1:]
        assert main(argv) == 2
        assert "jobs" in capsys.readouterr().err


class TestSweep:
    def test_sweep_writes_artifact_and_output(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        argv = ["sweep", "fig6", "--param", "seed=0,1",
                "--artifacts", str(tmp_path), "--output", str(target)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 experiments" in out
        payload = json.loads(target.read_text())
        assert payload["grid"] == {"seed": [0, 1]}
        assert [p["params"]["seed"] for p in payload["points"]] == [0, 1]
        assert payload == json.loads(
            (tmp_path / "sweeps" / "fig6.json").read_text()
        )

    def test_sweep_unknown_experiment(self, tmp_path, capsys):
        argv = ["sweep", "fig99", "--param", "seed=0", "--artifacts", str(tmp_path)]
        assert main(argv) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_unknown_param(self, tmp_path, capsys):
        argv = ["sweep", "fig6", "--param", "bogus=0", "--artifacts", str(tmp_path)]
        assert main(argv) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_sweep_malformed_param(self, tmp_path, capsys):
        argv = ["sweep", "fig6", "--param", "seed", "--artifacts", str(tmp_path)]
        assert main(argv) == 2
        assert "expected k=v1,v2" in capsys.readouterr().err


class TestSeedFlag:
    def test_run_threads_seed_into_params(self, capsys):
        assert main(["run", "fig6", "--seed", "1"]) == 0
        baseline = capsys.readouterr().out
        assert main(["run", "fig6", "--param", "seed=1"]) == 0
        assert capsys.readouterr().out == baseline

    def test_explicit_param_wins_over_seed_flag(self, capsys):
        assert main(["run", "fig6", "--param", "seed=1", "--seed", "2"]) == 0
        explicit = capsys.readouterr().out
        assert main(["run", "fig6", "--param", "seed=1"]) == 0
        assert capsys.readouterr().out == explicit

    def test_seed_on_seedless_experiment_warns(self, capsys):
        assert main(["run", "table2", "--seed", "1"]) == 0
        assert "no seed parameter" in capsys.readouterr().err

    def test_sweep_threads_seed_into_every_point(self, tmp_path, capsys):
        argv = ["sweep", "fig6", "--param", "seed=0,1",
                "--seed", "7", "--artifacts", str(tmp_path)]
        assert main(argv) == 0  # explicit sweep axis wins
        payload = json.loads((tmp_path / "sweeps" / "fig6.json").read_text())
        assert payload["grid"] == {"seed": [0, 1]}

    def test_sweep_seed_fixes_unswept_axis(self, tmp_path, capsys):
        argv = ["sweep", "serve_latency_cdf", "--param", "rho=0.2,0.4",
                "--param", "num_requests=20", "--seed", "5",
                "--artifacts", str(tmp_path)]
        assert main(argv) == 0
        payload = json.loads(
            (tmp_path / "sweeps" / "serve_latency_cdf.json").read_text()
        )
        assert payload["grid"]["seed"] == [5]
        assert all(p["params"]["seed"] == 5 for p in payload["points"])


class TestCluster:
    def test_cluster_prints_summary_and_writes_json(self, tmp_path, capsys):
        target = tmp_path / "cluster.json"
        argv = ["cluster", "--fleet", "standard:2", "--requests", "40",
                "--rho", "0.5", "--seed", "3", "--output", str(target)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet standard:2" in out and "seed 3" in out
        assert "chip0" in out and "chip1" in out
        payload = json.loads(target.read_text())
        assert payload["served"] == 40
        assert payload["fleet"]["initial_chips"] == 2

    def test_cluster_rejects_bad_fleet(self, capsys):
        assert main(["cluster", "--fleet", "warp:2", "--requests", "5"]) == 2
        assert "unknown chip kind" in capsys.readouterr().err

    def test_cluster_rejects_bad_policy(self, capsys):
        argv = ["cluster", "--policy", "random", "--requests", "5"]
        assert main(argv) == 2
        assert "unknown routing policy" in capsys.readouterr().err

    def test_cluster_sharded_trace_run(self, tmp_path, capsys):
        target = tmp_path / "planet.json"
        argv = ["cluster", "--fleet", "standard:8", "--requests", "60",
                "--rho", "0.5", "--arrival", "diurnal", "--shards", "2",
                "--shard-policy", "least_backlog", "--slo-ms", "2.0",
                "--seed", "1", "--output", str(target)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sharded: 2 shards" in out
        assert "slo 2.000 ms" in out
        payload = json.loads(target.read_text())
        assert payload["served"] + payload["shed"] == 60
        assert payload["sharding"]["num_shards"] == 2
        assert payload["slo"]["slo_ms"] == 2.0

    def test_cluster_large_fleet_elides_per_chip_rows(self, capsys):
        argv = ["cluster", "--fleet", "standard:20", "--requests", "30",
                "--rho", "0.5", "--shards", "4", "--window-ms", "0.1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-chip rows elided" in out
        assert "chip0 " not in out

    @pytest.mark.parametrize("argv,flag", [
        (["--shards", "2", "--window-ms", "-1"], "--window-ms"),
        (["--arrival", "diurnal", "--period-s", "-1"], "--period-s"),
    ])
    def test_cluster_rejects_negative_auto_knobs(self, argv, flag, capsys):
        assert main(["cluster", "--requests", "5", *argv]) == 2
        assert flag in capsys.readouterr().err

    def test_cluster_rejects_bad_shard_count(self, capsys):
        argv = ["cluster", "--fleet", "standard:2", "--requests", "5",
                "--shards", "4"]
        assert main(argv) == 2
        assert "cannot split" in capsys.readouterr().err

    def test_cluster_rejects_zero_shards(self, capsys):
        argv = ["cluster", "--requests", "5", "--shards", "0"]
        assert main(argv) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_cluster_autoscale_window_is_the_interval(self, tmp_path):
        from repro.cluster import fleet_capacity_rps, homogeneous_fleet

        target = tmp_path / "scaled.json"
        argv = ["cluster", "--fleet", "standard:1", "--requests", "80",
                "--rho", "3.0", "--autoscale-max", "3",
                "--output", str(target)]
        assert main(argv) == 0
        payload = json.loads(target.read_text())
        interval = 20 * (
            1.0 / fleet_capacity_rps(homogeneous_fleet(1), {"model4": 1.0})
        )
        assert payload["sharding"]["num_shards"] == 1
        assert payload["sharding"]["window_s"] == interval
        assert payload["autoscaler_events"]
        assert payload["served"] + payload["shed"] == 80

    def test_cluster_continuous_multitenant_run(self, tmp_path, capsys):
        target = tmp_path / "tenants.json"
        argv = ["cluster", "--fleet", "standard:2", "--requests", "40",
                "--rho", "1.5", "--seed", "3", "--scheduler", "continuous",
                "--tenants", "gold:3@16+silver:1", "--priority-mix",
                "0:0.8+1:0.2", "--output", str(target)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tenants (continuous scheduler):" in out
        assert "gold" in out and "silver" in out
        payload = json.loads(target.read_text())
        assert set(payload["tenants"]) == {"gold", "silver"}
        assert payload["tenants"]["gold"]["quota"] == 16
        served = sum(t["served"] for t in payload["tenants"].values())
        assert served == payload["served"]

    def test_cluster_rejects_bad_tenant_spec(self, capsys):
        argv = ["cluster", "--requests", "5", "--tenants", "gold:0"]
        assert main(argv) == 2
        assert "gold" in capsys.readouterr().err

    def test_cluster_rejects_bad_tenant_quota(self, capsys):
        argv = ["cluster", "--requests", "5", "--tenants", "gold:1@1.5"]
        assert main(argv) == 2
        assert "quota" in capsys.readouterr().err

    def test_cluster_rejects_bad_priority_mix(self, capsys):
        argv = ["cluster", "--requests", "5", "--priority-mix", "hi:0.5"]
        assert main(argv) == 2
        assert "priority" in capsys.readouterr().err

    def test_cluster_rejects_unknown_scheduler(self):
        argv = ["cluster", "--requests", "5", "--scheduler", "warp"]
        with pytest.raises(SystemExit):  # argparse choices
            main(argv)

    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_cluster_static_scheduler_batches_up_to_max_batch(
        self, max_batch, tmp_path
    ):
        target = tmp_path / "static.json"
        argv = ["cluster", "--requests", "30", "--rho", "3.0",
                "--scheduler", "static", "--max-batch", str(max_batch),
                "--output", str(target)]
        assert main(argv) == 0
        payload = json.loads(target.read_text())
        means = [c["mean_batch_size"] for c in payload["fleet"]["chips"].values()]
        if max_batch == 1:
            # FIFO: no batching even at a backlog-forming load
            assert means == [1.0] * len(means)
        else:
            assert all(mean > 1.0 for mean in means), means


class TestCacheCommands:
    def seed_cache(self, tmp_path, ids="table2,fig17"):
        artifacts = tmp_path / "artifacts"
        assert main(["run-all", "--only", ids, "--artifacts", str(artifacts)]) == 0
        return artifacts

    def test_ls_lists_entries(self, tmp_path, capsys):
        artifacts = self.seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "ls", "--artifacts", str(artifacts)]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig17" in out
        assert "2 entries" in out

    def test_ls_on_missing_cache_is_empty(self, tmp_path, capsys):
        assert main(["cache", "ls", "--artifacts", str(tmp_path / "nope")]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_gc_keeps_latest(self, tmp_path, capsys):
        artifacts = self.seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "gc", "--keep-latest", "1",
                     "--artifacts", str(artifacts)]) == 0
        assert "kept 1, removed 1" in capsys.readouterr().out
        assert main(["cache", "ls", "--artifacts", str(artifacts)]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_gc_keep_zero_empties_the_cache(self, tmp_path, capsys):
        artifacts = self.seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "gc", "--keep-latest", "0",
                     "--artifacts", str(artifacts)]) == 0
        assert "removed 2" in capsys.readouterr().out
        cache_root = artifacts / "cache"
        assert not list(cache_root.glob("*/*.json"))
        # shard dirs are pruned too
        assert not [p for p in cache_root.glob("*") if p.is_dir()]

    def test_ls_tolerates_malformed_entries(self, tmp_path, capsys):
        artifacts = self.seed_cache(tmp_path, ids="table2")
        shard = artifacts / "cache" / "zz"
        shard.mkdir(parents=True)
        # valid JSON, wrong shape: params is a list, not a dict
        (shard / ("z" * 64 + ".json")).write_text(
            '{"experiment": "x", "params": [1]}'
        )
        (shard / ("y" * 64 + ".json")).write_text("not json at all")
        capsys.readouterr()
        assert main(["cache", "ls", "--artifacts", str(artifacts)]) == 0
        out = capsys.readouterr().out
        assert "<corrupt>" in out and "3 entries" in out

    def test_gc_then_run_all_repopulates(self, tmp_path, capsys):
        artifacts = self.seed_cache(tmp_path, ids="table2")
        assert main(["cache", "gc", "--keep-latest", "0",
                     "--artifacts", str(artifacts)]) == 0
        capsys.readouterr()
        assert main(["run-all", "--only", "table2",
                     "--artifacts", str(artifacts)]) == 0
        assert "0 cache hits, 1 runs" in capsys.readouterr().out
