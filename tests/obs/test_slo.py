"""SLO objectives, error budgets, and burn-rate alerting."""

import math

import pytest

from repro.obs import (
    DEFAULT_BURN_RULES,
    AlertEvent,
    BurnRateRule,
    Hysteresis,
    SLOMonitor,
    SLOObjective,
)
from repro.serve.sketch import LatencySketch


def sketch_of(values_s):
    sketch = LatencySketch()
    sketch.add_many(list(values_s))
    return sketch


class TestHysteresis:
    def test_fires_at_threshold_and_clears_below_clear(self):
        latch = Hysteresis(fire=10.0, clear=5.0)
        assert latch.update(9.9) is None
        assert latch.update(10.0) == "fired"
        assert latch.active
        # Holds in the band [clear, fire).
        assert latch.update(7.0) is None
        assert latch.active
        assert latch.update(4.9) == "cleared"
        assert not latch.active

    def test_no_repeated_transitions(self):
        latch = Hysteresis(fire=1.0, clear=0.5)
        assert latch.update(2.0) == "fired"
        assert latch.update(3.0) is None
        assert latch.update(0.0) == "cleared"
        assert latch.update(0.0) is None

    def test_clear_above_fire_rejected(self):
        with pytest.raises(ValueError, match="must be <="):
            Hysteresis(fire=1.0, clear=2.0)

    def test_clear_defaults_to_fire(self):
        latch = Hysteresis(fire=1.0)
        assert latch.update(1.0) == "fired"
        assert latch.update(0.999) == "cleared"


class TestSLOObjective:
    def test_budget_fraction(self):
        objective = SLOObjective(slo_ms=10.0, target=0.99)
        assert objective.budget_fraction == pytest.approx(0.01)
        assert objective.slo_s == pytest.approx(0.01)

    @pytest.mark.parametrize("kwargs", [
        {"slo_ms": 0.0}, {"slo_ms": -1.0},
        {"slo_ms": math.nan}, {"slo_ms": math.inf},
        {"slo_ms": 1.0, "target": 0.0},
        {"slo_ms": 1.0, "target": 1.0},
        {"slo_ms": 1.0, "target": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SLOObjective(**kwargs)


class TestBurnRateRule:
    def test_clear_defaults_to_half_threshold(self):
        rule = BurnRateRule("r", threshold=8.0, long_windows=4, short_windows=1)
        assert rule.resolved_clear == pytest.approx(4.0)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0, "long_windows": 4, "short_windows": 1},
        {"threshold": 1.0, "long_windows": 1, "short_windows": 2},
        {"threshold": 1.0, "long_windows": 4, "short_windows": 0},
        {"threshold": 1.0, "long_windows": 4, "short_windows": 1,
         "clear_below": 2.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BurnRateRule("r", **kwargs)

    def test_defaults_pair(self):
        names = [rule.name for rule in DEFAULT_BURN_RULES]
        assert names == ["slo_fast_burn", "slo_slow_burn"]


class TestSLOMonitorStreaming:
    def test_streaming_equals_posthoc_sketch(self):
        """Cumulative attainment == post-hoc cdf on the merged total."""
        objective = SLOObjective(slo_ms=10.0, target=0.99)
        monitor = SLOMonitor(objective)
        total = LatencySketch()
        windows = [
            [0.001, 0.002, 0.003],
            [0.002, 0.05, 0.004],          # one violation
            [0.001],
            [0.02, 0.03],                  # two violations
        ]
        state = None
        for index, values in enumerate(windows):
            sketch = sketch_of(values)
            total.update(sketch)
            state = monitor.observe_window(index, 0.0, 1.0, sketch)
            assert state.cumulative_attainment == total.cdf(objective.slo_s)
        summary = monitor.summary()
        assert summary["attainment"] == total.cdf(objective.slo_s)
        assert summary["violations"] == round(
            (1.0 - summary["attainment"]) * total.count
        )
        assert state.budget_consumed == pytest.approx(
            (1.0 - total.cdf(objective.slo_s)) / objective.budget_fraction
        )

    def test_budget_remaining_never_negative(self):
        monitor = SLOMonitor(SLOObjective(slo_ms=1.0, target=0.99))
        for index in range(5):
            state = monitor.observe_window(
                index, 0.0, 1.0, sketch_of([0.5] * 10)   # every request bad
            )
            assert state.budget_remaining >= 0.0
        assert state.budget_remaining == 0.0
        assert monitor.summary()["budget"]["remaining"] == 0.0

    def test_empty_window_attainment_is_none(self):
        monitor = SLOMonitor(SLOObjective(slo_ms=1.0))
        state = monitor.observe_window(0, 0.0, 1.0, LatencySketch())
        assert state.attainment is None
        assert state.served == 0
        assert state.burn_rate == 0.0
        assert state.budget_remaining == 1.0

    def test_burn_rate_all_bad_is_inverse_budget(self):
        """100% violations burn at 1/budget_fraction x."""
        monitor = SLOMonitor(SLOObjective(slo_ms=1.0, target=0.99))
        state = monitor.observe_window(0, 0.0, 1.0, sketch_of([1.0] * 20))
        assert state.burn_rates["slo_fast_burn"][1] == pytest.approx(100.0)

    def test_fast_burn_fires_and_clears(self):
        monitor = SLOMonitor(SLOObjective(slo_ms=1.0, target=0.99))
        bad = sketch_of([1.0] * 50)
        good = sketch_of([1e-4] * 50)
        fired = []
        for index in range(4):
            fired += monitor.observe_window(index, 0.0, 1.0, bad).events
        assert any(
            e.rule == "slo_fast_burn" and e.kind == "fired" for e in fired
        )
        assert "slo_fast_burn" in monitor.active_rules
        cleared = []
        for index in range(4, 12):
            cleared += monitor.observe_window(index, 0.0, 1.0, good).events
        assert any(
            e.rule == "slo_fast_burn" and e.kind == "cleared" for e in cleared
        )

    def test_alert_event_carries_window_and_time(self):
        monitor = SLOMonitor(SLOObjective(slo_ms=1.0, target=0.99))
        bad = sketch_of([1.0] * 50)
        for index in range(4):
            monitor.observe_window(index, index * 1.0, (index + 1) * 1.0, bad)
        event = monitor.fired[0]
        assert event.window is not None
        assert event.t_s == pytest.approx(event.window + 1.0)
        assert "burn rate" in event.message

    def test_counts_replay_matches_sketch_path_on_attainment(self):
        """observe_counts replays saved rows to the same budget series."""
        objective = SLOObjective(slo_ms=10.0, target=0.99)
        live = SLOMonitor(objective)
        replay = SLOMonitor(objective)
        windows = [[0.001] * 5, [0.05] * 2 + [0.001] * 3, [0.001] * 4]
        for index, values in enumerate(windows):
            state = live.observe_window(index, 0.0, 1.0, sketch_of(values))
            replay.observe_counts(
                index, 0.0, 1.0, state.served, state.good
            )
        assert [s.budget_remaining for s in replay.states] == pytest.approx(
            [s.budget_remaining for s in live.states]
        )
        assert [s.burn_rate for s in replay.states] == pytest.approx(
            [s.burn_rate for s in live.states]
        )

    def test_counts_clamps_good_to_served(self):
        monitor = SLOMonitor(SLOObjective(slo_ms=1.0))
        state = monitor.observe_counts(0, 0.0, 1.0, served=5, good=9.0)
        assert state.good == 5.0
        state = monitor.observe_counts(1, 0.0, 1.0, served=5, good=-1.0)
        assert state.good == 0.0

    def test_alert_event_round_trip(self):
        event = AlertEvent(
            rule="r", kind="fired", severity="critical", message="m",
            value=2.0, threshold=1.0, window=3, t_s=0.5,
        )
        assert AlertEvent.from_dict(event.to_dict()) == event
        bare = AlertEvent(
            rule="r", kind="cleared", severity="warning", message="",
            value=0.0, threshold=0.0,
        )
        payload = bare.to_dict()
        assert "window" not in payload and "t_s" not in payload
        assert AlertEvent.from_dict(payload) == bare

    def test_summary_shape(self):
        monitor = SLOMonitor(SLOObjective(slo_ms=5.0, target=0.95))
        monitor.observe_window(0, 0.0, 1.0, sketch_of([0.001, 0.2]))
        summary = monitor.summary()
        assert summary["slo_ms"] == 5.0
        assert summary["target"] == 0.95
        assert summary["budget"]["fraction"] == pytest.approx(0.05)
        assert len(summary["rules"]) == len(DEFAULT_BURN_RULES)
        assert summary["alerts_fired"] == len(
            [a for a in summary["alerts"] if a["kind"] == "fired"]
        )
