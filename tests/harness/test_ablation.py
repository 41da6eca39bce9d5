"""Architecture-ablation harness tests."""

import pytest

from repro.harness.ablation import ABLATION_VARIANTS, architecture_ablation


@pytest.fixture(scope="module")
def points():
    return architecture_ablation("model4")


class TestAblation:
    def test_all_variants_present(self, points):
        assert set(points) == set(ABLATION_VARIANTS)

    def test_full_design_fastest(self, points):
        full = points["full"].latency_s
        for variant, point in points.items():
            assert point.latency_s >= full * 0.999, variant

    def test_skipping_matters(self, points):
        # The sparse core is inherently skip-based, so the TTB-skip ablation
        # shows up in datapath energy and weight traffic rather than latency
        # (the lockstep dense core rarely saves whole feature steps anyway).
        assert points["no_skip"].energy_mj > points["full"].energy_mj
        assert points["no_skip"].latency_s >= points["full"].latency_s * 0.999

    def test_stratifier_matters(self, points):
        assert points["no_stratifier"].latency_s > points["full"].latency_s

    def test_combined_ablation_worst_of_the_two(self, points):
        combined = points["no_skip_no_strat"].latency_s
        assert combined >= points["no_skip"].latency_s * 0.999
        assert combined >= points["no_stratifier"].latency_s * 0.999

    def test_tiny_bundles_lose_weight_reuse(self, points):
        """(1,1) bundles = conventional spike-serial mapping (Fig. 4a)."""
        assert points["tiny_bundles"].energy_mj > points["full"].energy_mj
        assert points["tiny_bundles"].latency_s > points["full"].latency_s

    def test_energy_orderings(self, points):
        assert points["no_skip"].energy_mj > points["full"].energy_mj

    def test_unknown_variant_rejected(self):
        from repro.bundles import BundleSpec
        from repro.harness.ablation import _setup_for

        with pytest.raises(ValueError):
            _setup_for("warp_drive", BundleSpec(2, 4))
