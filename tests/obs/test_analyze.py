"""Offline trace analysis: critical paths, self-time rollups, diffs."""

import math

import pytest

from repro.arch import BishopConfig
from repro.arch.accelerator import BishopAccelerator
from repro.bundles import BundleSpec
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import model_config
from repro.obs.analyze import (
    IDLE,
    CriticalPath,
    critical_path,
    critical_path_trace,
    diff_traces,
    find_timelines,
    self_time,
)

from ..arch.engine.reference_lanes import replay_inference


def entry(resource, start, end, label="t"):
    return {"resource": resource, "label": label,
            "start_s": start, "end_s": end}


class TestCriticalPathBasics:
    def test_durations_sum_to_makespan(self):
        timeline = [
            entry("sram", 0.0, 0.5),
            entry("dram", 0.3, 2.0),
            entry("noc", 1.8, 3.0),
        ]
        path = critical_path(timeline)
        assert path.makespan_s == 3.0
        assert path.total_s == pytest.approx(3.0, abs=0.0)
        resources = [seg.resource for seg in path.segments]
        assert resources == ["sram", "dram", "noc"]

    def test_segments_tile_the_interval(self):
        timeline = [entry("a", 0.0, 1.0), entry("b", 0.5, 2.0)]
        path = critical_path(timeline)
        assert path.segments[0].start_s == 0.0
        assert path.segments[-1].end_s == path.makespan_s
        for left, right in zip(path.segments, path.segments[1:]):
            assert left.end_s == right.start_s

    def test_gap_becomes_idle_segment(self):
        timeline = [entry("a", 0.0, 1.0), entry("b", 2.0, 3.0)]
        path = critical_path(timeline)
        assert [seg.resource for seg in path.segments] == ["a", IDLE, "b"]
        assert path.total_s == pytest.approx(3.0, abs=0.0)
        assert path.blocking_s()[IDLE] == pytest.approx(1.0)

    def test_blocking_shares_sum_to_one(self):
        timeline = [
            entry("a", 0.0, 1.0), entry("b", 0.9, 2.5), entry("a", 2.0, 4.0),
        ]
        shares = critical_path(timeline).blocking_shares()
        assert math.fsum(shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_width_entries_ignored(self):
        timeline = [entry("z", 1.0, 1.0), entry("a", 0.0, 2.0)]
        path = critical_path(timeline)
        assert [seg.resource for seg in path.segments] == ["a"]

    def test_empty_timeline(self):
        path = critical_path([])
        assert path.segments == ()
        assert path.total_s == 0.0
        assert path.blocking_shares() == {}

    def test_accepts_dict_payload_with_declared_makespan(self):
        payload = {"makespan_s": 5.0, "timeline": [entry("a", 0.0, 4.0)]}
        path = critical_path(payload)
        assert path.makespan_s == 5.0
        # Declared makespan beyond the last entry shows up as trailing idle.
        assert path.segments[-1].resource == IDLE
        assert path.total_s == pytest.approx(5.0, abs=0.0)

    def test_deterministic_tie_break(self):
        timeline = [entry("b", 0.0, 2.0), entry("a", 0.0, 2.0)]
        first = critical_path(timeline)
        second = critical_path(list(reversed(timeline)))
        assert [s.resource for s in first.segments] == ["a"]
        assert [s.resource for s in second.segments] == ["a"]

    def test_to_dict(self):
        payload = critical_path([entry("a", 0.0, 1.0)]).to_dict()
        assert payload["makespan_s"] == 1.0
        assert payload["path_total_s"] == 1.0
        assert payload["segments"][0]["resource"] == "a"
        assert payload["blocking_shares"] == {"a": 1.0}


# The event replay of a compiled program on the callback lanes.
REPLAYS = {"kernel": replay_inference}


class TestCriticalPathZoo:
    """Acceptance: exact attribution across the Table-2 zoo, on the
    event replay."""

    @pytest.fixture(scope="class")
    def reports(self):
        spec = BundleSpec(2, 4)
        accelerator = BishopAccelerator(BishopConfig(bundle_spec=spec))
        out = {}
        for model in ("model1", "model2", "model3", "model4", "model5"):
            trace = synthetic_trace(
                model_config(model), PROFILES[model], spec, seed=0
            )
            out[model] = accelerator.run_trace(trace)
        return out

    @pytest.mark.parametrize("mode", sorted(REPLAYS))
    def test_path_sums_to_makespan_exactly(self, reports, mode):
        for model, report in reports.items():
            run = REPLAYS[mode](report)
            path = run.critical_path()
            assert path.total_s == pytest.approx(
                run.makespan_s, rel=1e-9
            ), (model, mode)
            shares = path.blocking_shares()
            assert math.fsum(shares.values()) == pytest.approx(
                1.0, abs=1e-9
            ), (model, mode)
            # Work-conserving single-request replay: nothing should idle.
            assert IDLE not in shares, (model, mode)

    @pytest.mark.parametrize("mode", sorted(REPLAYS))
    @pytest.mark.parametrize("bs_t, bs_n", [(1, 2), (4, 4), (4, 14)])
    def test_path_tiles_makespan_across_bundle_shapes(self, bs_t, bs_n, mode):
        spec = BundleSpec(bs_t, bs_n)
        config = BishopConfig(bundle_spec=spec)
        trace = synthetic_trace(
            model_config("model4"), PROFILES["model4"], spec, seed=0
        )
        report = BishopAccelerator(config).run_trace(trace)
        run = REPLAYS[mode](report)
        path = critical_path(run)
        assert path.total_s == pytest.approx(run.makespan_s, rel=1e-9)
        shares = path.blocking_shares()
        assert math.fsum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert IDLE not in shares


class TestTraceAnalysis:
    def doc(self):
        return {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "main"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 7,
             "args": {"name": "worker"}},
            {"name": "outer", "cat": "t", "ph": "X", "ts": 0.0,
             "dur": 100.0, "pid": 1, "tid": 7},
            {"name": "inner", "cat": "t", "ph": "X", "ts": 10.0,
             "dur": 40.0, "pid": 1, "tid": 7},
            {"name": "alert", "ph": "i", "s": "g", "ts": 5.0,
             "pid": 2, "tid": 0},
        ]}

    def test_self_time_charges_duration_minus_children(self):
        rows = {row["name"]: row for row in self_time(self.doc())}
        assert rows["outer"]["total_us"] == pytest.approx(100.0)
        assert rows["outer"]["self_us"] == pytest.approx(60.0)
        assert rows["inner"]["self_us"] == pytest.approx(40.0)
        assert "alert" not in rows          # instants are not spans

    def test_critical_path_trace_picks_innermost(self):
        path = critical_path_trace(self.doc())
        assert path.total_s == pytest.approx(path.makespan_s, rel=1e-9)
        labels = [seg.label for seg in path.segments]
        assert labels == ["outer", "inner", "outer"]
        assert all(seg.resource == "main:worker" for seg in path.segments)

    def test_critical_path_trace_empty(self):
        assert critical_path_trace({"traceEvents": []}).segments == ()

    def test_diff_traces_ranks_by_self_delta(self):
        old = self.doc()
        new = self.doc()
        new["traceEvents"][3]["dur"] = 90.0       # inner grows by 50us
        rows = diff_traces(old, new)
        assert rows[0]["name"] == "inner"
        assert rows[0]["status"] == "changed"
        assert rows[0]["delta_self_us"] == pytest.approx(50.0)
        outer = next(r for r in rows if r["name"] == "outer")
        assert outer["delta_self_us"] == pytest.approx(-50.0)
        assert outer["delta_total_us"] == pytest.approx(0.0)

    def test_diff_traces_added_and_removed(self):
        old = {"traceEvents": [
            {"name": "gone", "ph": "X", "ts": 0, "dur": 5, "pid": 1, "tid": 1},
        ]}
        new = {"traceEvents": [
            {"name": "new", "ph": "X", "ts": 0, "dur": 5, "pid": 1, "tid": 1},
        ]}
        status = {r["name"]: r["status"] for r in diff_traces(old, new)}
        assert status == {"gone": "removed", "new": "added"}


class TestFindTimelines:
    def test_top_level_and_nested(self):
        payload = {
            "timeline": [entry("a", 0.0, 1.0)],
            "engine": {"timeline": [entry("b", 0.0, 1.0)],
                       "makespan_s": 1.0},
            "empty": {"timeline": []},
            "scalar": 3,
        }
        labels = [label for label, _ in find_timelines(payload)]
        assert labels == ["result", "engine"]

    def test_non_dict(self):
        assert find_timelines([1, 2]) == []
        assert find_timelines(None) == []


class TestEngineRunToDict:
    def test_round_trips_through_critical_path(self):
        spec = BundleSpec(2, 4)
        trace = synthetic_trace(
            model_config("model1"), PROFILES["model1"], spec, seed=0
        )
        report = BishopAccelerator(
            BishopConfig(bundle_spec=spec)
        ).run_trace(trace)
        run = replay_inference(report)
        payload = run.to_dict()
        assert payload["makespan_s"] == run.makespan_s
        assert len(payload["timeline"]) == len(run.timeline)
        assert set(payload["utilization"]) == set(run.utilization())
        via_dict = critical_path(payload)
        direct = run.critical_path()
        assert isinstance(direct, CriticalPath)
        assert via_dict.total_s == direct.total_s
        assert [s.resource for s in via_dict.segments] == [
            s.resource for s in direct.segments
        ]
