"""Unit tests for the span/event tracer (repro.obs.trace)."""

import pytest

from repro.obs.trace import (
    MemorySink,
    NullSink,
    Stopwatch,
    Tracer,
    deterministic_view,
    get_tracer,
    set_tracer,
    stopwatch,
    tracing,
)


class TestSinks:
    def test_null_sink_disables_tracer(self):
        tracer = Tracer(NullSink())
        assert tracer.enabled is False
        tracer.event("ignored", x=1)  # must be a silent no-op

    def test_default_tracer_is_disabled(self):
        assert Tracer().enabled is False

    def test_memory_sink_buffers_in_order(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("a", x=1)
        tracer.event("b", x=2)
        assert [e["name"] for e in sink.events] == ["a", "b"]
        assert len(sink) == 2

    def test_memory_sink_clear(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("a")
        tracer.event("b")
        sink.clear()
        assert len(sink) == 0
        assert sink.events == []


class TestSpans:
    def test_span_emitted_on_exit_with_timing(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", tag="x") as span:
            span.set(extra=1)
        (event,) = sink.events
        assert event["kind"] == "span"
        assert event["name"] == "work"
        assert event["tag"] == "x"
        assert event["extra"] == 1
        assert event["dur"] >= 0.0
        assert event["parent"] is None

    def test_nested_spans_record_parent_seq(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            tracer.event("inner-event")
            with tracer.span("inner"):
                pass
        by_name = {e["name"]: e for e in sink.events}
        assert by_name["inner-event"]["parent"] == outer.seq
        assert by_name["inner"]["parent"] == outer.seq
        assert by_name["outer"]["parent"] is None

    def test_span_seq_orders_by_completion(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # inner finishes first, so it lands in the sink first, but the
        # outer span opened first and owns the smaller seq.
        inner, outer = sink.events
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["seq"] < inner["seq"]

    def test_failed_span_flagged(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        (event,) = sink.events
        assert event["failed"] is True

    def test_explicit_finish(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        span = tracer.span("work")
        span.set(result=3)
        span.finish()
        (event,) = sink.events
        assert event["result"] == 3
        assert "failed" not in event

    def test_disabled_tracer_returns_shared_noop_span(self):
        tracer = Tracer()
        a = tracer.span("x")
        b = tracer.span("y")
        assert a is b
        with a as span:
            span.set(anything=1).finish()  # all no-ops


class TestActiveTracer:
    def test_default_active_tracer_disabled(self):
        assert get_tracer().enabled is False

    def test_tracing_installs_and_restores(self):
        before = get_tracer()
        sink = MemorySink()
        with tracing(sink) as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled is True
        assert get_tracer() is before

    def test_tracing_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with tracing(MemorySink()):
                raise RuntimeError
        assert get_tracer() is before

    def test_set_tracer_returns_previous(self):
        first = get_tracer()
        replacement = Tracer(MemorySink())
        previous = set_tracer(replacement)
        try:
            assert previous is first
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)


class TestStopwatch:
    def test_elapsed_is_monotone_nonnegative(self):
        watch = Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0.0 <= first <= second

    def test_restart_resets(self):
        watch = Stopwatch()
        for _ in range(1000):
            pass
        watch.restart()
        assert watch.elapsed() < 1.0

    def test_factory(self):
        assert isinstance(stopwatch(), Stopwatch)


class TestDeterministicView:
    def test_strips_only_timing_keys(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("a", x=1)
        with tracer.span("b", y=2):
            pass
        view = deterministic_view(sink.events)
        assert view[0] == {
            "kind": "event",
            "seq": 1,
            "name": "a",
            "parent": None,
            "x": 1,
        }
        assert "t0" not in view[1] and "dur" not in view[1]
        assert view[1]["y"] == 2
        # the original events keep their timing keys
        assert "t" in sink.events[0]
