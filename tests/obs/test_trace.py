"""Span tracer: Chrome trace_event output and the module-level API."""

import json
import os
import threading
import time

from repro import obs
from repro.obs.trace import Tracer


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", args={"n": 3}):
            time.sleep(0.001)
        (event,) = tracer.events
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 1000.0  # microseconds
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()
        assert event["args"] == {"n": 3}

    def test_nested_spans_are_time_contained(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events  # inner exits (and records) first
        assert outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_span_records_even_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("fails"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(tracer) == 1

    def test_chrome_trace_shape_and_ordering(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        trace = tracer.chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        timestamps = [event["ts"] for event in trace["traceEvents"]]
        assert timestamps == sorted(timestamps)

    def test_write_produces_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"][0]["name"] == "a"

    def test_thread_safety(self):
        tracer = Tracer()

        def work():
            for _ in range(50):
                with tracer.span("t"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer) == 200


class TestModuleApi:
    def teardown_method(self):
        obs.disable_tracing()
        obs.disable_metrics()

    def test_disabled_span_is_shared_noop(self):
        first = obs.span("anything")
        second = obs.span("other")
        assert first is second  # the reusable nullcontext
        with first:
            pass

    def test_disabled_metric_helpers_noop(self):
        obs.inc("x")
        obs.set_gauge("y", 1)
        obs.observe("z", 0.5)
        assert obs.metrics() is None

    def test_enable_disable_round_trip(self):
        tracer = obs.enable_tracing()
        assert obs.tracing_enabled()
        with obs.span("live"):
            pass
        assert len(tracer) == 1
        assert obs.disable_tracing() is tracer
        assert not obs.tracing_enabled()

    def test_enable_is_idempotent(self):
        tracer = obs.enable_tracing()
        assert obs.enable_tracing() is tracer
        registry = obs.enable_metrics()
        assert obs.enable_metrics() is registry

    def test_enabled_reflects_either_side(self):
        assert not obs.enabled()
        obs.enable_metrics()
        assert obs.enabled()
        obs.disable_metrics()
        obs.enable_tracing()
        assert obs.enabled()

    def test_custom_instances_installable(self):
        mine = Tracer()
        assert obs.enable_tracing(mine) is mine
        assert obs.tracer() is mine
