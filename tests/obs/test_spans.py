"""Span tracing semantics: nesting, attrs, errors, and the disabled path."""

from __future__ import annotations

import pytest

from repro.obs import (
    NOOP_SPAN,
    NULL_REGISTRY,
    TelemetryRegistry,
    event,
    span,
    use_registry,
)


def make_clock(step: int = 1_000):
    """Deterministic fake perf_counter_ns: advances by ``step`` per call."""
    state = {"t": 0}

    def clock() -> int:
        state["t"] += step
        return state["t"]

    return clock


class TestDisabledPath:
    def test_span_returns_the_shared_noop_singleton(self):
        with use_registry(NULL_REGISTRY):
            assert span("a") is NOOP_SPAN
            assert span("a") is span("b")  # no allocation per call

    def test_noop_span_enters_exits_and_chains_set(self):
        with use_registry(NULL_REGISTRY):
            with span("a", x=1) as sp:
                assert sp.set(y=2) is sp
            assert NULL_REGISTRY.events == []

    def test_event_records_nothing(self):
        with use_registry(NULL_REGISTRY):
            event("marker", rank=3)
        assert NULL_REGISTRY.events == []

    def test_noop_span_propagates_exceptions(self):
        with use_registry(NULL_REGISTRY):
            with pytest.raises(KeyError):
                with span("a"):
                    raise KeyError("x")


class TestRecordingPath:
    def test_span_lands_in_trace_buffer_with_attrs(self):
        reg = TelemetryRegistry(clock=make_clock())
        with use_registry(reg):
            with span("compress", method="CDC") as sp:
                sp.set(bytes_out=42)
        (ev,) = reg.events
        assert ev.name == "compress"
        assert ev.attrs == {"method": "CDC", "bytes_out": 42}
        assert ev.phase == "X"
        assert ev.dur_ns > 0

    def test_nesting_depth_is_recorded(self):
        reg = TelemetryRegistry(clock=make_clock())
        with use_registry(reg):
            with span("outer"):
                with span("inner"):
                    with span("innermost"):
                        pass
        by_name = {ev.name: ev for ev in reg.events}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["innermost"].depth == 2

    def test_child_interval_lies_inside_parent(self):
        reg = TelemetryRegistry(clock=make_clock())
        with use_registry(reg):
            with span("outer"):
                with span("inner"):
                    pass
        by_name = {ev.name: ev for ev in reg.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.ts_ns <= inner.ts_ns
        assert inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns

    def test_depth_resets_after_exception(self):
        reg = TelemetryRegistry(clock=make_clock())
        with use_registry(reg):
            with pytest.raises(RuntimeError):
                with span("fails"):
                    raise RuntimeError("boom")
            with span("after"):
                pass
        by_name = {ev.name: ev for ev in reg.events}
        assert by_name["fails"].attrs == {"error": "RuntimeError"}
        assert by_name["after"].depth == 0

    def test_event_is_instant(self):
        reg = TelemetryRegistry(clock=make_clock())
        with use_registry(reg):
            event("salvage", rank=2)
        (ev,) = reg.events
        assert ev.phase == "i"
        assert ev.dur_ns == 0
        assert ev.attrs == {"rank": 2}
