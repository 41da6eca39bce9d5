"""Signature-derived parameter schemas (``repro.schema``) and the
registry's import-time validation of them."""

import argparse
import inspect
import math
from pathlib import Path
from typing import Literal

import pytest

from repro.harness import EXPERIMENTS, Experiment, run_experiment
from repro.schema import (
    CLI_KINDS,
    HELP,
    ParamSpec,
    add_signature,
    signature_params,
)


def _fn(seed: int = 0, rho: float = 0.5, mix: str = "model4") -> dict:
    return {}


class TestCast:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_rejects_non_finite_float_text(self, text):
        with pytest.raises(ValueError, match="finite float"):
            ParamSpec(float, 1.0).cast(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_float_values(self, value):
        with pytest.raises(ValueError, match="finite float"):
            ParamSpec(float, 1.0).cast(value)

    def test_casts_finite_values(self):
        assert ParamSpec(float, 1.0).cast("2.5") == 2.5
        assert ParamSpec(float, 1.0).cast(3) == 3.0
        assert ParamSpec(int, 1).cast("7") == 7
        assert ParamSpec(str, "a").cast(5) == "5"

    def test_bool_is_not_an_int(self):
        assert ParamSpec(int, 1).cast(True) == 1
        assert type(ParamSpec(int, 1).cast(True)) is int

    def test_uncastable_names_the_kind(self):
        with pytest.raises(ValueError, match="expected int, got 'x'"):
            ParamSpec(int, 1).cast("x")


class TestParseFlag:
    """``parse_flag`` is ``cast`` as an argparse ``type``: the same values
    pass, and a rejected one is a usage error rather than a crash."""

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_float_is_an_argument_type_error(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="finite float"):
            ParamSpec(float, 1.0).parse_flag(text)

    def test_uncastable_is_an_argument_type_error(self):
        with pytest.raises(argparse.ArgumentTypeError, match="expected int"):
            ParamSpec(int, 1).parse_flag("x")

    def test_agrees_with_cast(self):
        for spec, text in [
            (ParamSpec(float, 1.0), "2.5"),
            (ParamSpec(float, 1.0), "-0.0"),
            (ParamSpec(int, 1), "7"),
            (ParamSpec(str, "a"), "model4"),
        ]:
            value = spec.parse_flag(text)
            assert value == spec.cast(text)
            assert type(value) is spec.kind

    def test_parser_error_names_the_flag(self, capsys):
        parser = argparse.ArgumentParser(prog="repro")
        parser.add_argument("--rho", type=ParamSpec(float, 1.0).parse_flag)
        assert parser.parse_args(["--rho", "0.5"]).rho == 0.5
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--rho", "nan"])
        assert exc.value.code == 2
        assert "argument --rho: expected a finite float" in (
            capsys.readouterr().err
        )


class TestSignatureParams:
    def test_kind_default_and_help_come_from_signature_and_table(self):
        specs = signature_params(_fn)
        assert list(specs) == ["seed", "rho", "mix"]
        assert specs["seed"] == ParamSpec(int, 0, HELP["seed"])
        assert specs["rho"] == ParamSpec(float, 0.5, HELP["rho"])
        assert specs["mix"] == ParamSpec(str, "model4", HELP["mix"])

    def test_help_override(self):
        specs = signature_params(_fn, {"rho": "load vs one chip"})
        assert specs["rho"].help == "load vs one chip"
        assert specs["seed"].help == HELP["seed"]

    def test_literal_annotation_gives_choices(self):
        def fn(*, arrival: Literal["poisson", "bursty"] = "poisson") -> None:
            pass

        spec = signature_params(fn, keyword_only=True)["arrival"]
        assert spec.kind is str and spec.choices == ("poisson", "bursty")

    def test_keyword_only_skips_positional_parameters(self):
        def fn(output, *, seed: int = 0, alerts: bool = False) -> None:
            pass

        specs = signature_params(
            fn, kinds=(bool, int, float, str), keyword_only=True
        )
        assert list(specs) == ["seed", "alerts"]
        assert specs["alerts"].kind is bool


class TestCommandLineKinds:
    """The kinds only command-line handlers declare: paths, optional
    (``X | None``), repeatable (``tuple[X, ...]``) and required flags."""

    @staticmethod
    def handler(
        target: str,
        *,
        artifacts: Path = Path("artifacts"),
        seed: int | None = None,
        param: tuple[str, ...] = (),
        keep_latest: int,
    ) -> int:
        return 0

    def test_kinds_come_from_default_or_annotation(self):
        specs = signature_params(
            self.handler, kinds=CLI_KINDS, keyword_only=True
        )
        assert specs["artifacts"] == ParamSpec(
            Path, Path("artifacts"), HELP["artifacts"]
        )
        assert specs["seed"] == ParamSpec(int, None, HELP["seed"])
        assert specs["param"] == ParamSpec(str, (), HELP["param"])
        assert specs["keep_latest"] == ParamSpec(
            int, None, HELP["keep_latest"], required=True
        )

    def test_parser_from_the_signature(self, capsys):
        parser = argparse.ArgumentParser(prog="repro")
        add_signature(parser, self.handler)
        args = parser.parse_args([
            "x.json", "--artifacts", "a", "--seed", "3", "--param", "k=1",
            "--param", "j=2", "--keep-latest", "0",
        ])
        assert vars(args) == {
            "target": "x.json", "artifacts": Path("a"), "seed": 3,
            "param": ["k=1", "j=2"], "keep_latest": 0,
        }
        defaults = parser.parse_args(["x.json", "--keep-latest", "1"])
        assert (defaults.artifacts, defaults.seed, defaults.param) == (
            Path("artifacts"), None, []
        )
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["x.json"])
        assert exc.value.code == 2
        assert "--keep-latest" in capsys.readouterr().err

    def test_required_parameter_before_the_star_has_no_default(self):
        def fn(seed: int, *, rho: float = 0.5) -> None:
            pass

        with pytest.raises(ValueError, match="'seed' has no default"):
            signature_params(fn, kinds=CLI_KINDS)

    def test_none_default_without_annotation_is_rejected(self):
        def fn(*, seed=None) -> None:
            pass

        with pytest.raises(ValueError, match="'seed' default None"):
            signature_params(fn, kinds=CLI_KINDS, keyword_only=True)


class TestRegistryValidation:
    """Registering a malformed experiment fails when the registry is built,
    i.e. at import of ``repro.harness``."""

    def test_parameter_without_default(self):
        def fn(seed: int, rho: float = 0.5) -> dict:
            return {}

        with pytest.raises(ValueError, match="'seed' has no default"):
            Experiment("bad", "Fig. 0", fn)

    @pytest.mark.parametrize("default", [None, True, (1, 2), [1]])
    def test_default_not_int_float_or_str(self, default):
        def fn(seed=default) -> dict:
            return {}

        with pytest.raises(ValueError, match="'seed' default"):
            Experiment("bad", "Fig. 0", fn)

    def test_parameter_without_help_text(self):
        def fn(undocumented_knob: int = 0) -> dict:
            return {}

        with pytest.raises(ValueError, match="'undocumented_knob' has no help"):
            Experiment("bad", "Fig. 0", fn)

    def test_override_of_a_shared_name_is_rejected(self):
        with pytest.raises(ValueError, match="overridden only for"):
            Experiment("bad", "Fig. 0", _fn, param_help={"seed": "my seed"})

    def test_override_for_a_missing_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            Experiment("bad", "Fig. 0", _fn, param_help={"budget": "n"})

    def test_smoke_params_must_be_in_the_signature(self):
        with pytest.raises(ValueError, match="smoke params not in schema"):
            Experiment("bad", "Fig. 0", _fn, smoke_params={"epochs": 2})


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_registry_schema_is_the_signature(name):
    experiment = EXPERIMENTS[name]
    signature = inspect.signature(experiment.fn).parameters
    assert list(experiment.params) == list(signature)
    for param_name, spec in experiment.params.items():
        assert spec.default == signature[param_name].default
        assert type(spec.default) is spec.kind
        assert spec.help


def test_non_finite_override_names_the_parameter():
    with pytest.raises(ValueError, match="'rho': expected a finite float"):
        run_experiment("serve_latency_cdf", rho="nan", num_requests=10)
