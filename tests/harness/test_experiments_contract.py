"""Registry-wide contract: every experiment carries valid metadata and
produces a JSON-round-trippable dict.

Execution uses each experiment's ``smoke_params`` (the cheap CI
configuration) so the whole registry runs in seconds; paper-faithful
defaults are exercised by ``repro run-all`` and the benches.
"""

import json

import pytest

from repro.harness import EXPERIMENTS, Experiment, ParamSpec, package_code_hash
from repro.harness.experiments import COST_TIERS

ALL_IDS = sorted(EXPERIMENTS)


@pytest.fixture(scope="module")
def smoke_results():
    """Run each experiment at most once across the whole module."""
    cache: dict[str, dict] = {}

    def _run(name: str) -> dict:
        if name not in cache:
            experiment = EXPERIMENTS[name]
            cache[name] = experiment.run(**experiment.smoke_params)
        return cache[name]

    return _run


@pytest.mark.parametrize("name", ALL_IDS)
class TestMetadata:
    def test_entry_is_experiment(self, name):
        experiment = EXPERIMENTS[name]
        assert isinstance(experiment, Experiment)
        assert experiment.id == name
        assert callable(experiment.fn)

    def test_artifact_and_cost(self, name):
        experiment = EXPERIMENTS[name]
        # Paper artifacts plus the beyond-paper engine/serving/cluster/
        # compiler/DSE experiments.
        assert experiment.artifact.startswith(
            ("Table", "Fig.", "Sec.", "Engine", "Serving", "Cluster",
             "Compiler", "DSE")
        )
        assert experiment.cost in COST_TIERS
        assert experiment.description

    def test_param_schema(self, name):
        experiment = EXPERIMENTS[name]
        for param_name, spec in experiment.params.items():
            assert isinstance(spec, ParamSpec), param_name
            assert spec.kind in (int, float, str), param_name
            assert isinstance(spec.default, spec.kind), param_name
            # every default must survive a CLI-style string round trip
            assert spec.cast(str(spec.default)) == spec.default

    def test_smoke_params_resolve(self, name):
        experiment = EXPERIMENTS[name]
        resolved = experiment.resolve_params(experiment.smoke_params)
        assert set(resolved) == set(experiment.params)

    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError, match="no parameter"):
            EXPERIMENTS[name].resolve_params({"definitely_not_a_param": 1})


@pytest.mark.parametrize("name", ALL_IDS)
class TestResults:
    def test_returns_json_round_trippable_dict(self, name, smoke_results):
        result = smoke_results(name)
        assert isinstance(result, dict) and result
        round_tripped = json.loads(json.dumps(result, default=float))
        assert isinstance(round_tripped, dict)
        assert set(round_tripped) == {str(k) for k in result}

    def test_canonical_encoding_is_stable(self, name, smoke_results):
        result = smoke_results(name)
        once = json.dumps(result, indent=2, sort_keys=True, default=float)
        twice = json.dumps(
            json.loads(once), indent=2, sort_keys=True, default=float
        )
        assert once == twice


class TestRegistryHash:
    def test_stable_within_process(self):
        assert package_code_hash() == package_code_hash()

    def test_shape(self):
        digest = package_code_hash()
        assert len(digest) == 64
        int(digest, 16)  # hex
