"""The DSE orchestrator: evaluation, caching, frontier reports, export."""

import json

import pytest

from repro.dse import (
    Choice,
    DSEConfig,
    DesignSpace,
    default_space,
    evaluate_point,
    export_fleet_kinds,
    run_dse,
)
from repro.runtime import ExperimentRunner

MODEL = "model4"  # smallest zoo model: cheapest real compile


def small_space() -> DesignSpace:
    """A 16-point sub-space that keeps real-compile tests quick."""
    return DesignSpace((
        Choice("dense_rows", (8, 16), default=16),
        Choice("sparse_units", (64, 128), default=128),
        Choice("bs_n", (4, 8), default=4),
        Choice("dense_fraction", (0.35, 0.5), default=0.5),
    ))


class TestEvaluatePoint:
    def test_reference_point_metrics(self):
        space = default_space()
        record = evaluate_point(MODEL, space.default_point(), seed=0)
        metrics = record["metrics"]
        assert metrics["latency_ms"] > 0
        assert metrics["energy_mj"] > 0
        assert metrics["area_mm2"] == pytest.approx(2.96)
        assert metrics["edp_uj_ms"] == pytest.approx(
            metrics["energy_mj"] * 1e3 * metrics["latency_ms"]
        )

    def test_partial_point_fills_defaults(self):
        record = evaluate_point(MODEL, {"sparse_units": 64}, seed=0)
        assert record["point"]["sparse_units"] == 64
        assert record["point"]["dense_rows"] == 16

    def test_off_grid_point_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(MODEL, {"sparse_units": 3}, seed=0)

    def test_overrides_are_json_safe_kind_profiles(self):
        record = evaluate_point(MODEL, {"bs_n": 8, "dram_gbps": 25.6}, seed=0)
        overrides = json.loads(json.dumps(record["overrides"]))
        assert overrides["bundle_spec"] == {"bs_t": 2, "bs_n": 8}
        assert overrides["dram"]["bandwidth_bytes_per_s"] == pytest.approx(25.6e9)


class TestRunDSE:
    def test_exhaustive_small_space(self):
        report = run_dse(
            DSEConfig(model=MODEL, strategy="grid", budget=64, seed=0),
            space=small_space(),
        )
        # 16-point space: the grid exhausts it (reference is one of them).
        assert report["evaluated"] == 16
        assert report["searched"] == 15
        frontier = report["frontier"]
        assert frontier
        # Frontier members are mutually non-dominating and sorted by the
        # primary objective.
        latencies = [e["metrics"]["latency_ms"] for e in frontier]
        assert latencies == sorted(latencies)
        # The reference record is candidate 0 and carries the standing.
        assert report["candidates"][0]["point"] == small_space().default_point()
        assert isinstance(report["reference"]["on_frontier"], bool)
        assert report["reference"]["frontier_slack"] >= 0.0

    def test_budget_counts_searched_candidates(self):
        report = run_dse(
            DSEConfig(model=MODEL, strategy="random", budget=5, seed=1),
            space=small_space(),
        )
        assert report["searched"] == 5
        assert report["evaluated"] == 6  # + reference

    def test_deterministic_across_runs(self):
        config = DSEConfig(model=MODEL, strategy="evolutionary", budget=6, seed=3)
        a = run_dse(config, space=small_space())
        b = run_dse(config, space=small_space())
        assert a["candidates"] == b["candidates"]
        assert a["frontier"] == b["frontier"]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            DSEConfig(model=MODEL, budget=0)
        with pytest.raises(ValueError):
            DSEConfig(model=MODEL, objectives=("latency_ms", "nonsense"))


class TestRunnerBackedEvaluation:
    def test_warm_rerun_is_all_cache_hits(self, tmp_path, monkeypatch):
        # Keep the shared on-disk program store out of the test.
        monkeypatch.setenv("REPRO_PROGRAM_CACHE", "off")
        config = DSEConfig(model=MODEL, strategy="random", budget=3, seed=0)
        cold_runner = ExperimentRunner(artifacts_root=tmp_path, jobs=1)
        cold = run_dse(config, runner=cold_runner)
        assert cold["cache_hits"] == 0
        warm_runner = ExperimentRunner(artifacts_root=tmp_path, jobs=1)
        warm = run_dse(config, runner=warm_runner)
        assert warm["cache_hits"] == warm["evaluated"] == cold["evaluated"]
        assert warm["candidates"] == cold["candidates"]
        assert warm["frontier"] == cold["frontier"]

    def test_growing_budget_reuses_prior_candidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRAM_CACHE", "off")
        runner = ExperimentRunner(artifacts_root=tmp_path, jobs=1)
        run_dse(DSEConfig(model=MODEL, strategy="random", budget=3, seed=0),
                runner=runner)
        grown = run_dse(
            DSEConfig(model=MODEL, strategy="random", budget=5, seed=0),
            runner=runner,
        )
        # Same seed: the first 3 searched points are identical, so only the
        # new ones (and nothing else) miss.
        assert grown["cache_hits"] == 4  # reference + 3 searched


class TestFleetExport:
    def test_export_registers_and_simulates_two_chip_cluster(self, tmp_path):
        from repro.cluster import (
            CHIP_KINDS,
            load_chip_kinds,
            parse_fleet,
            simulate_cluster_sharded,
        )
        from repro.serve import SchedulerConfig, poisson_arrivals, request_profile

        report = run_dse(
            DSEConfig(model=MODEL, strategy="random", budget=4, seed=0),
            space=small_space(),
        )
        path = tmp_path / "kinds.json"
        kinds = export_fleet_kinds(report, path)
        assert len(kinds) == len(report["frontier"])
        payload = json.loads(path.read_text())
        assert payload["model"] == MODEL

        registered = load_chip_kinds(path)
        try:
            assert registered == list(kinds)
            # A 2-chip fleet of the rank-0 frontier chip serves a stream
            # end-to-end.
            name = registered[0]
            fleet = parse_fleet(f"{name}:2")
            rate = 0.5 / request_profile(MODEL).single_latency_s
            stream = poisson_arrivals(40, rate, MODEL, seed=0)
            result = simulate_cluster_sharded(
                stream, fleet, SchedulerConfig(max_inflight=2), seed=0
            )
            assert result.served == 40
            assert len(result.chips) == 2
            assert all(c.kind == name for c in result.chips.values())
        finally:
            for kind in registered:
                CHIP_KINDS.pop(kind, None)

    def test_load_rejects_bad_files(self, tmp_path):
        from repro.cluster import load_chip_kinds

        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(ValueError):
            load_chip_kinds(empty)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kinds": {"x": {"sparse_units": 0}}}))
        with pytest.raises(ValueError):
            load_chip_kinds(bad)

    def test_load_is_atomic_on_partially_bad_file(self, tmp_path):
        """A file whose Nth kind is invalid must register nothing at all."""
        from repro.cluster import CHIP_KINDS, load_chip_kinds

        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({
            "kinds": {
                "good_kind": {"sparse_units": 64},
                "bad_kind": {"sparse_units": 0},
            }
        }))
        with pytest.raises(ValueError, match="bad_kind"):
            load_chip_kinds(mixed)
        assert "good_kind" not in CHIP_KINDS
        assert "bad_kind" not in CHIP_KINDS
