"""BENCHMARK.json's shape, the entry point without sources, and compare.py."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
from benchkit.env import PERF, ROOT
from benchkit.layers import PER_LAYER_UNITS
from benchkit.measure import END_TO_END_UNITS

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
BENCHMARK = json.loads(BENCHMARK_PATH.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert BENCHMARK_PATH.stat().st_size <= 64 * 1024
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert BENCHMARK["paths"] == ["perf"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in BENCHMARK[section]:
            assert set(metric) == keys
            assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_metric_units_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "serve_light", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def write_runs(directory, workload, values, correct=True):
    directory.mkdir(exist_ok=True)
    for seed, value in enumerate(values):
        line = {
            "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {"items_per_ref_s": {"value": value, "unit": "1/s"}},
        }
        (directory / f"{workload}-seed{seed}.json").write_text(json.dumps(line) + "\n")


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([100, 101, 99, 100, 102], [100, 99, 101, 100, 98], "ok"),
        ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "regressed"),
        ([60, 140, 100, 80, 120], [70, 130, 90, 85, 95], "unresolved"),
        ([60, 140, 100, 80, 120], [150, 160, 155, 170, 165], "ok"),  # every run wins
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "higher", 0.1) == expected


def test_compare_exit_code(tmp_path, capsys):
    write_runs(tmp_path / "a", "serve_light", [100, 101, 99])
    write_runs(tmp_path / "b", "serve_light", [100, 100, 101])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "serve_light" in capsys.readouterr().out
    write_runs(tmp_path / "c", "serve_light", [70, 71, 72])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    write_runs(tmp_path / "d", "serve_light", [100, 100, 101], correct=False)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "d")]) == 1
