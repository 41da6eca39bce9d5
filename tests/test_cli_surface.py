"""The CLI surface: every subcommand's parsed defaults, pinned.

``GOLDEN`` is ``vars(parse_args([cmd, *required]))`` per subcommand.  A
change to a flag's spelling, default or presence shows up here; every
subcommand's arguments are generated from its handler's signature
(``repro.schema.add_signature``), so this table also pins that
derivation.
"""

import argparse
import inspect
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.schema import CLI_KINDS, signature_params

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
        "rho": 0.7, "scheduler": "static", "seed": 0, "shard_jobs": 1,
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


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


# Every (sub)command path → its handler.
HANDLERS = {
    (name,) if child is None else (name, child): handler
    for name, entry in COMMANDS.items()
    for child, handler in (
        entry if isinstance(entry, dict) else {None: entry}
    ).items()
}
COMMAND_PATHS = sorted(HANDLERS)


def _parser(path: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = build_parser()
    for name in path:
        parser = _subparsers(parser)[name]
    return parser


def _minimal_argv(path: tuple[str, ...]) -> list[str]:
    """The GOLDEN argv of ``path``: the command plus its required arguments."""
    return list(next(argv for argv in GOLDEN if argv[:len(path)] == path))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def test_every_subcommand_is_pinned():
    assert {argv[0] for argv in GOLDEN} == set(_subparsers(build_parser()))
    pinned = {argv[:len(path)] for argv in GOLDEN for path in COMMAND_PATHS}
    assert set(COMMAND_PATHS) <= pinned


def test_command_help_is_the_handler_docstring_summary(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    for path, handler in HANDLERS.items():
        summary = inspect.getdoc(handler).splitlines()[0]
        assert summary in text, path


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_parsed_defaults(argv):
    assert vars(build_parser().parse_args(list(argv))) == GOLDEN[argv]


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
class TestGeneratedArguments:
    def test_flags_are_the_keyword_signature(self, path):
        specs = signature_params(
            HANDLERS[path], kinds=CLI_KINDS, keyword_only=True
        )
        flags = {
            option for action in _parser(path)._actions
            for option in action.option_strings
        }
        assert flags == {_flag(name) for name in specs} | {"-h", "--help"}

    def test_positionals_are_the_parameters_before_the_star(self, path):
        params = inspect.signature(HANDLERS[path]).parameters.values()
        positionals = [
            action.dest for action in _parser(path)._actions
            if not action.option_strings
        ]
        assert positionals == [
            p.name for p in params if p.kind is not p.KEYWORD_ONLY
        ]

    def test_help_is_non_empty_for_every_action(self, path, capsys):
        actions = _parser(path)._actions
        for action in actions:
            assert action.help, action.option_strings or action.dest
        with pytest.raises(SystemExit):
            main([*path, "--help"])
        # argparse re-wraps help (also after hyphens): compare unspaced
        text = "".join(capsys.readouterr().out.split())
        for action in actions:
            assert "".join(action.help.split()) in text


FLOAT_FLAGS = sorted(
    (path, _flag(name))
    for path, handler in HANDLERS.items()
    for name, spec in signature_params(
        handler, kinds=CLI_KINDS, keyword_only=True
    ).items()
    if spec.kind is float
)


def test_float_flags_cover_every_command():
    assert {
        (("compile",), "--dram-gbps"), (("compile",), "--theta-q"),
        (("compile",), "--theta-k"), (("slo",), "--slo-ms"),
        (("slo",), "--target"), (("cluster",), "--rho"),
    } <= set(FLOAT_FLAGS)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "path, flag", FLOAT_FLAGS, ids=[" ".join(p) + f" {f}" for p, f in FLOAT_FLAGS]
)
def test_non_finite_float_exits_2_naming_the_flag(path, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_minimal_argv(path), f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite float" in (
        capsys.readouterr().err
    )


def test_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cache", "gc"])
    assert exc.value.code == 2
    assert "--keep-latest" in capsys.readouterr().err


def test_run_rejects_non_finite_param(capsys):
    argv = ["run", "serve_latency_cdf", "--param", "rho=nan",
            "--param", "num_requests=10"]
    assert main(argv) == 2
    assert "'rho': expected a finite float" in capsys.readouterr().err
