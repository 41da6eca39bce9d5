"""Tracing API tests: nesting, transport, export, and overhead bounds."""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.trace import _NULL_SPAN, Tracer, _env_flag


class TestDisabledPath:
    def test_span_returns_the_cached_null_span(self):
        tracer = Tracer()
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b", cat="x", k=1) is _NULL_SPAN

    def test_null_span_is_a_noop_context_manager(self):
        with _NULL_SPAN as span:
            span.set(anything="goes")

    def test_disabled_span_records_nothing(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.instant("marker")
        assert tracer.spans == []

    def test_disabled_span_overhead_is_tiny(self):
        # The whole point of the cached null span: unconditioned call
        # sites in hot paths.  Bound is deliberately generous (shared CI
        # runners), but catches any accidental allocation-per-call.
        tracer = Tracer()
        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("hot"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 10e-6, f"disabled span cost {per_call * 1e6:.2f}us"


class TestRecording:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer", cat="compile"):
            with tracer.span("inner", cat="compile"):
                pass
        inner, outer = tracer.spans  # inner closes (and records) first
        assert inner.name == "inner" and inner.parent == "outer"
        assert inner.depth == 1 and outer.depth == 0
        assert outer.parent is None
        assert inner.start_ns >= outer.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_attrs_at_open_and_via_set(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("compile.model", model="model4") as span:
            span.set(cache="miss")
        (record,) = tracer.spans
        assert record.args == {"model": "model4", "cache": "miss"}

    def test_instant_is_zero_duration_at_current_depth(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            tracer.instant("tick", note="here")
        tick = tracer.spans[0]
        assert tick.start_ns == tick.end_ns
        assert tick.parent == "outer" and tick.depth == 1

    def test_threads_nest_independently(self):
        tracer = Tracer()
        tracer.enable()

        def worker():
            with tracer.span("thread-span"):
                pass

        with tracer.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {s.name: s for s in tracer.spans}
        # The other thread's span must not pick up this thread's stack.
        assert by_name["thread-span"].parent is None
        assert by_name["thread-span"].depth == 0
        assert by_name["thread-span"].tid != by_name["main-span"].tid


class TestTransport:
    def test_snapshot_ingest_round_trip(self):
        source = Tracer()
        source.enable()
        with source.span("a", cat="engine", k=1):
            with source.span("b"):
                pass
        sink = Tracer()
        assert sink.ingest(source.snapshot()) == 2
        assert sink.structure() == source.structure()

    def test_snapshot_is_json_serializable(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a", count=3, rate=0.5, label="x"):
            pass
        round_tripped = json.loads(json.dumps(tracer.snapshot()))
        sink = Tracer()
        sink.ingest(round_tripped)
        assert sink.structure() == tracer.structure()

    def test_structure_excludes_timestamps(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        time.sleep(0.002)
        with tracer.span("a"):
            pass
        first, second = tracer.structure()
        assert first == second  # identical despite different clocks


class TestChromeExport:
    def test_events_are_rebased_complete_events(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer", cat="runtime"):
            with tracer.span("inner", cat="compile", k=1):
                pass
        events = tracer.chrome_events()
        x = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in x} == {"outer", "inner"}
        assert min(e["ts"] for e in x) == 0.0
        assert all(e["dur"] >= 0.0 for e in x)
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "thread_name" for e in meta)

    def test_trace_document_shape(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "M"]
        assert "process_name" in names

    def test_write_round_trips_through_json_loads(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a", note="text"):
            pass
        path = tmp_path / "trace.json"
        payload = tracer.write(path)
        assert json.loads(path.read_text()) == payload

    def test_extra_events_are_appended(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        extra = [{"name": "sim", "ph": "X", "ts": 0, "dur": 1, "pid": 9, "tid": 0}]
        doc = tracer.chrome_trace(extra)
        assert doc["traceEvents"][-1] == extra[0]


class TestEnvFlag:
    @pytest.mark.parametrize("value", ["1", "on", "TRUE", " yes "])
    def test_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert _env_flag("REPRO_TRACE") is True

    @pytest.mark.parametrize("value", ["", "0", "off", "False", "no"])
    def test_falsy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert _env_flag("REPRO_TRACE") is False

    @pytest.mark.parametrize("value", ["2", "enabled", "tru"])
    def test_unrecognized_value_raises_with_valid_spellings(
        self, monkeypatch, value
    ):
        # Never fall through silently to the default.
        monkeypatch.setenv("REPRO_TRACE", value)
        with pytest.raises(ValueError, match="REPRO_TRACE") as excinfo:
            _env_flag("REPRO_TRACE")
        assert "1|on|true|yes" in str(excinfo.value)

    def test_enable_from_env_raises_on_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "fastt")
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            obs.enable_from_env()


class TestEnableDisable:
    def test_enable_sets_env_for_workers_and_disable_clears_it(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        obs.enable()
        import os

        assert os.environ["REPRO_TRACE"] == "1"
        assert os.environ["REPRO_METRICS"] == "1"
        assert obs.enabled()
        obs.disable()
        assert "REPRO_TRACE" not in os.environ
        assert not obs.enabled()

    def test_enable_fresh_clears_previous_buffers(self):
        obs.enable()
        with obs.span("stale"):
            pass
        obs.inc("stale.counter")
        obs.enable()  # fresh=True default
        assert obs.tracer.spans == []
        assert obs.registry.is_empty()

    def test_enabled_span_overhead_is_bounded(self):
        tracer = Tracer()
        tracer.enable()
        n = 5_000
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("hot", cat="engine"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 100e-6, f"enabled span cost {per_call * 1e6:.2f}us"
