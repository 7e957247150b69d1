"""Unit tests for the telemetry registry and its instruments."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    COUNTER_MAX,
    HISTOGRAM_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    NullRegistry,
    TelemetryRegistry,
    env_enabled,
    get_registry,
    resolve_registry,
    set_registry,
    use_registry,
)


class TestCounter:
    def test_add_accumulates(self):
        c = TelemetryRegistry().counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_negative_add_rejected(self):
        c = TelemetryRegistry().counter("x")
        with pytest.raises(ValueError):
            c.add(-1)

    def test_saturates_at_counter_max(self):
        c = TelemetryRegistry().counter("x")
        c.add(COUNTER_MAX)
        c.add(COUNTER_MAX)
        assert c.value == COUNTER_MAX == (1 << 63) - 1
        assert c.saturated
        assert c.snapshot()["saturated"] is True

    def test_snapshot_shape(self):
        c = TelemetryRegistry().counter("hits")
        c.add(3)
        assert c.snapshot() == {"type": "counter", "name": "hits", "value": 3}


class TestGauge:
    def test_set_tracks_last_and_max(self):
        g = TelemetryRegistry().gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.max == 5

    def test_set_max_keeps_high_water_only(self):
        g = TelemetryRegistry().gauge("depth")
        g.set_max(3)
        g.set_max(1)
        assert g.value == 3
        assert g.max == 3

    def test_snapshot_before_any_update_reports_zero_max(self):
        g = TelemetryRegistry().gauge("depth")
        assert g.snapshot()["max"] == 0.0


class TestHistogram:
    @pytest.mark.parametrize(
        "value,bucket",
        [
            (-10, 0),
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (1023, 10),
            (1024, 11),
            (1 << 62, 63),
            (1 << 200, 63),  # clamps into the last bucket
        ],
    )
    def test_bucket_index_is_bit_length(self, value, bucket):
        assert Histogram.bucket_index(value) == bucket

    def test_bucket_upper_bound(self):
        assert Histogram.bucket_upper_bound(0) == 0
        assert Histogram.bucket_upper_bound(3) == 7
        # every value lands in a bucket whose upper bound covers it
        for v in (1, 7, 8, 1000, 4096):
            assert v <= Histogram.bucket_upper_bound(Histogram.bucket_index(v))

    def test_observe_tracks_count_total_min_max(self):
        h = TelemetryRegistry().histogram("us")
        for v in (3, 9, 1):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 13, 1, 9)
        assert h.mean == pytest.approx(13 / 3)

    def test_quantile_bound(self):
        h = TelemetryRegistry().histogram("us")
        assert h.quantile_bound(0.5) == 0  # empty
        for v in [1] * 90 + [1000] * 10:
            h.observe(v)
        assert h.quantile_bound(0.5) == 1
        assert h.quantile_bound(0.99) == Histogram.bucket_upper_bound(
            Histogram.bucket_index(1000)
        )
        with pytest.raises(ValueError):
            h.quantile_bound(1.5)

    def test_snapshot_only_lists_nonzero_buckets(self):
        h = TelemetryRegistry().histogram("us")
        h.observe(5)
        snap = h.snapshot()
        assert snap["buckets"] == {"3": 1}
        assert len(snap["buckets"]) < HISTOGRAM_BUCKETS


class TestRegistry:
    def test_instruments_are_cached_by_name(self):
        reg = TelemetryRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = TelemetryRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_metrics_sorted_by_name(self):
        reg = TelemetryRegistry()
        reg.counter("zz").add()
        reg.gauge("aa").set(1)
        assert [m["name"] for m in reg.metrics()] == ["aa", "zz"]

    def test_trace_buffer_drops_after_max_events(self):
        reg = TelemetryRegistry(max_events=2)
        for i in range(5):
            reg.record_span("s", ts_ns=i, dur_ns=1, tid=0, depth=0)
        assert len(reg.events) == 2
        assert reg.dropped_events == 3

    def test_last_event_ns_advances_even_when_dropping(self):
        reg = TelemetryRegistry(max_events=0, clock=lambda: 10)
        reg.record_span("s", ts_ns=100, dur_ns=50, tid=0, depth=0)
        assert reg.last_event_ns == 150

    def test_counter_thread_safety(self):
        reg = TelemetryRegistry()
        c = reg.counter("n")
        h = reg.histogram("h")

        def worker():
            for _ in range(5_000):
                c.add()
                h.observe(7)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 5_000
        assert h.count == 8 * 5_000
        assert h.total == 7 * 8 * 5_000

    def test_concurrent_instrument_creation_yields_one_instance(self):
        reg = TelemetryRegistry()
        seen = []

        def worker():
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(inst is seen[0] for inst in seen)


class TestNullRegistry:
    def test_shared_noop_instrument(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.histogram("b")
        NULL_REGISTRY.counter("a").add(10)
        NULL_REGISTRY.gauge("g").set_max(4)
        NULL_REGISTRY.histogram("h").observe(1)
        assert NULL_REGISTRY.metrics() == []
        assert NULL_REGISTRY.counters() == {}

    def test_record_span_is_a_noop(self):
        NULL_REGISTRY.record_span("s", 0, 1, 0, 0)
        assert NULL_REGISTRY.events == []
        assert NULL_REGISTRY.dropped_events == 0


class TestActiveRegistrySwitch:
    def test_set_registry_returns_previous(self):
        reg = TelemetryRegistry()
        previous = set_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_use_registry_restores_on_exit(self):
        before = get_registry()
        reg = TelemetryRegistry()
        with use_registry(reg) as active:
            assert active is reg
            assert get_registry() is reg
        assert get_registry() is before

    def test_use_registry_restores_on_error(self):
        before = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(TelemetryRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is before


class TestResolveRegistry:
    def test_none_keeps_active(self):
        assert resolve_registry(None) is get_registry()

    def test_false_is_null(self):
        assert resolve_registry(False) is NULL_REGISTRY

    def test_true_builds_fresh_enabled_registry(self):
        reg = resolve_registry(True)
        assert isinstance(reg, TelemetryRegistry)
        assert reg is not resolve_registry(True)

    def test_instance_passthrough(self):
        reg = TelemetryRegistry()
        assert resolve_registry(reg) is reg
        null = NullRegistry()
        assert resolve_registry(null) is null

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            resolve_registry("yes")


class TestEnvEnabled:
    @pytest.mark.parametrize("value", ["", "0", "false", "OFF", "no", " 0 "])
    def test_falsy_values(self, value):
        assert not env_enabled({"REPRO_TELEMETRY": value})

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "anything"])
    def test_truthy_values(self, value):
        assert env_enabled({"REPRO_TELEMETRY": value})

    def test_default_is_off(self):
        assert not env_enabled({})


class TestHistogramEdges:
    """quantile_bound / bucket_index at the bucket boundaries."""

    def test_bucket_index_zero_and_one(self):
        assert Histogram.bucket_index(0) == 0
        assert Histogram.bucket_index(-5) == 0
        assert Histogram.bucket_index(1) == 1
        assert Histogram.bucket_index(2) == 2

    def test_bucket_index_counter_max_clamps_to_last(self):
        assert Histogram.bucket_index(2**63 - 1) == HISTOGRAM_BUCKETS - 1
        assert Histogram.bucket_index(2**200) == HISTOGRAM_BUCKETS - 1

    def test_quantile_bound_empty_is_zero(self):
        h = Histogram("h")
        assert h.quantile_bound(0.0) == 0
        assert h.quantile_bound(0.5) == 0
        assert h.quantile_bound(1.0) == 0

    def test_quantile_bound_rejects_out_of_range(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.quantile_bound(-0.1)
        with pytest.raises(ValueError):
            h.quantile_bound(1.1)

    def test_quantile_bound_saturated_clips_at_last_bucket(self):
        h = Histogram("h")
        h.observe(2**100)  # lands in the open-ended last bucket
        assert h.saturated
        assert h.quantile_bound(1.0) == Histogram.bucket_upper_bound(
            HISTOGRAM_BUCKETS - 1
        )

    def test_quantile_bound_zero_quantile_with_data(self):
        h = Histogram("h")
        h.observe(0)
        h.observe(100)
        # q=0 -> target 0 samples; first bucket (even empty) satisfies it
        assert h.quantile_bound(0.0) == Histogram.bucket_upper_bound(0)

