"""``arrival_trace``: every arrival process by name, and rate validation."""

import math

import pytest

from repro.serve import (
    arrival_trace,
    bursty_arrivals,
    diurnal_arrivals,
    dvs_stream_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
    regional_arrivals,
)

MIX = {"model4": 0.6, "model2": 0.4}
REGIONS = "us:0.5@0.0+eu:0.5@0.5"


class TestArrivalTrace:
    """The builder makes the same generator calls, with the same seeds, as
    calling each generator directly — so seeded streams are identical."""

    def test_poisson(self):
        assert arrival_trace("poisson", 50, 200.0, MIX, 3) == poisson_arrivals(
            50, 200.0, MIX, 3
        )

    def test_bursty(self):
        expected = bursty_arrivals(50, 200.0, MIX, 3, burst_factor=5.0)
        assert arrival_trace(
            "bursty", 50, 200.0, MIX, 3, burst_factor=5.0
        ) == expected

    def test_diurnal_auto_period_covers_one_cycle(self):
        expected = diurnal_arrivals(
            50, 200.0, MIX, 3, period_s=50 / (0.625 * 200.0)
        )
        assert arrival_trace("diurnal", 50, 200.0, MIX, 3) == expected

    def test_flash_crowd_spike_at_fixed_fractions(self):
        base_rps = 200.0 / 4.0
        span = 50 / base_rps
        expected = flash_crowd_arrivals(
            50, base_rps, MIX, 3, spike_at_s=0.3 * span,
            spike_duration_s=0.2 * span, spike_factor=4.0,
        )
        assert arrival_trace("flash_crowd", 50, 200.0, MIX, 3) == expected

    def test_regional_explicit_period(self):
        expected = regional_arrivals(50, 200.0, REGIONS, MIX, 3, period_s=2.0)
        assert arrival_trace(
            "regional", 50, 200.0, MIX, 3, period_s=2.0, regions=REGIONS
        ) == expected

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind 'warp'"):
            arrival_trace("warp", 10, 100.0)

    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "regional"])
    def test_negative_period_rejected(self, kind):
        # 0 means "auto"; a negative period is an error, not "auto"
        with pytest.raises(ValueError, match="period_s must be >= 0"):
            arrival_trace(kind, 10, 100.0, period_s=-1.0)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
class TestRateGuards:
    def test_poisson(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            poisson_arrivals(10, rate)

    def test_bursty(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            bursty_arrivals(10, rate)

    def test_diurnal(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            diurnal_arrivals(10, rate)

    def test_flash_crowd(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            flash_crowd_arrivals(10, rate)

    def test_dvs_tick_rate(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            dvs_stream_arrivals(2, 3, rate)
