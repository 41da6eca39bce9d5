"""The CLI surface: every subcommand's parsed defaults, pinned.

``GOLDEN`` is ``vars(parse_args([cmd, *required]))`` per subcommand.  A
change to a flag's spelling, default or presence shows up here; the
``repro cluster`` flags are generated from ``_run_cluster``'s keyword
signature (``repro.schema``), so this table also pins that derivation.
"""

import argparse
from pathlib import Path

import pytest

from repro.cli import _run_cluster, build_parser, main
from repro.schema import signature_params

ARTIFACTS = Path("artifacts")

GOLDEN = {
    ("list",): {"command": "list"},
    ("run", "fig6"): {
        "command": "run", "experiment": "fig6", "output": None, "param": [],
        "seed": None, "trace": False,
    },
    ("run-all",): {
        "alerts": False, "artifacts": ARTIFACTS, "command": "run-all",
        "force": False, "jobs": 1, "only": None, "smoke": False,
        "trace": False,
    },
    ("sweep", "fig6"): {
        "artifacts": ARTIFACTS, "command": "sweep", "experiment": "fig6",
        "force": False, "jobs": 1, "output": None, "param": [], "seed": None,
    },
    ("compile", "model4"): {
        "bs_n": 4, "bs_t": 2, "chip": "standard", "command": "compile",
        "dram_gbps": None, "dump": None, "model": "model4", "no_cache": False,
        "passes": "all", "seed": 0, "theta_k": None, "theta_q": None,
    },
    ("cluster",): {
        "alerts": False, "arrival": "poisson", "autoscale_max": 0,
        "command": "cluster", "fleet": "standard:4", "kinds_file": None,
        "max_batch": 1, "max_inflight": 2, "mix": "model4", "output": None,
        "passes": "all", "period_s": 0.0, "policy": "least_work",
        "priority_mix": "", "queue_capacity": 0,
        "regions": "us:0.5@0.0+eu:0.3@0.33+apac:0.2@0.66", "requests": 400,
        "rho": 0.7, "scheduler": "auto", "seed": 0, "shard_jobs": 1,
        "shard_policy": "round_robin", "shards": 1, "slo_ms": 0.0,
        "slo_target": 0.99, "tenants": "", "trace": False, "window_ms": 0.0,
    },
    ("dse", "model4"): {
        "artifacts": ARTIFACTS, "batch": 16, "budget": 64, "command": "dse",
        "export_fleet": None, "force": False, "jobs": 1, "model": "model4",
        "objectives": "latency_ms+energy_mj+area_mm2", "output": None,
        "seed": 0, "strategy": "random", "top": 8, "trace": False,
    },
    ("cache", "ls"): {
        "artifacts": ARTIFACTS, "cache_command": "ls", "command": "cache",
        "stats": False,
    },
    ("cache", "gc", "--keep-latest", "1"): {
        "artifacts": ARTIFACTS, "cache_command": "gc", "command": "cache",
        "keep_latest": 1,
    },
    ("trace", "fig6"): {
        "command": "trace", "experiment": "fig6", "output": None, "param": [],
        "seed": None, "smoke": False,
    },
    ("metrics",): {
        "command": "metrics", "experiment": None, "json": False,
        "manifest": None, "param": [], "seed": None, "smoke": False,
    },
    ("analyze", "x.json"): {
        "artifacts": ARTIFACTS, "command": "analyze", "critical_path": False,
        "diff": None, "json": False, "self_time": False, "target": "x.json",
        "top": 12,
    },
    ("slo", "x.json"): {
        "artifact": "x.json", "artifacts": ARTIFACTS, "command": "slo",
        "json": False, "slo_ms": 0.0, "target": 0.0,
    },
    ("zoo",): {"command": "zoo"},
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def _subparser(name: str) -> argparse.ArgumentParser:
    return _subparsers()[name]


def test_every_subcommand_is_pinned():
    assert {argv[0] for argv in GOLDEN} == set(_subparsers())


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_parsed_defaults(argv):
    assert vars(build_parser().parse_args(list(argv))) == GOLDEN[argv]


class TestClusterFlags:
    def test_generated_from_the_keyword_signature(self):
        specs = signature_params(
            _run_cluster, kinds=(bool, int, float, str), keyword_only=True
        )
        assert len(specs) == 24
        flags = {
            option for action in _subparser("cluster")._actions
            for option in action.option_strings
        }
        assert {"--" + name.replace("_", "-") for name in specs} <= flags
        assert flags - {"--" + n.replace("_", "-") for n in specs} == {
            "-h", "--help", "--kinds-file", "--output", "--trace",
        }

    def test_help_is_non_empty_for_every_flag(self, capsys):
        for action in _subparser("cluster")._actions:
            assert action.help, action.option_strings
        with pytest.raises(SystemExit):
            main(["cluster", "--help"])
        # argparse re-wraps help (also after hyphens): compare unspaced
        text = "".join(capsys.readouterr().out.split())
        for action in _subparser("cluster")._actions:
            assert "".join(action.help.split()) in text

    @pytest.mark.parametrize(
        "flag, value", [("--rho", "nan"), ("--rho", "inf"), ("--slo-ms", "-inf")]
    )
    def test_non_finite_float_exits_2_naming_the_flag(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--requests", "5", f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite float" in (
            capsys.readouterr().err
        )


def test_run_rejects_non_finite_param(capsys):
    argv = ["run", "serve_latency_cdf", "--param", "rho=nan",
            "--param", "num_requests=10"]
    assert main(argv) == 2
    assert "'rho': expected a finite float" in capsys.readouterr().err
