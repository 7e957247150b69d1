"""Live monitoring: the metrics stream writer and the monitor renderer."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    MetricsStreamWriter,
    MonitorState,
    TelemetryRegistry,
    render_monitor,
    sparkline,
    use_registry,
    validate_metrics_lines,
)
from repro.obs.monitor import ANOMALY_MIN_CHUNKS, RunningStats
from repro.replay.session import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 4


def make_program(messages_per_rank=40):
    program, _ = make_workload(
        "synthetic", NPROCS, seed="3",
        messages_per_rank=str(messages_per_rank), fanout="2",
    )
    return program


class TestRunningStats:
    def test_matches_batch_mean_and_std(self):
        values = [3.0, 5.0, 9.0, 1.0, 4.0, 4.0, 7.0]
        stats = RunningStats()
        for v in values:
            stats.push(v)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.std == pytest.approx(math.sqrt(var))

    def test_zscore_and_degenerate_cases(self):
        stats = RunningStats()
        assert stats.std == 0.0
        stats.push(5.0)
        assert stats.zscore(100.0) == 0.0  # no baseline yet
        stats.push(7.0)
        assert stats.zscore(stats.mean) == pytest.approx(0.0)
        assert stats.zscore(stats.mean + stats.std) == pytest.approx(1.0)


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_ramp_uses_full_range(self):
        chart = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert chart == "▁▂▃▄▅▆▇█"

    def test_downsampling_keeps_spikes(self):
        series = [0.0] * 100
        series[50] = 9.0
        chart = sparkline(series, width=10)
        assert len(chart) == 10
        assert "█" in chart  # max-pooling preserved the spike


def synthetic_lines(chunks=12, spike_at=None):
    """A hand-built stream: meta, samples, chunk ladder, end."""
    lines = [
        json.dumps({"type": "meta", "registry": "unit", "enabled": True,
                    "stream": True, "interval": 0.01})
    ]
    for i in range(chunks):
        stored = 64 if i != spike_at else 640
        lines.append(json.dumps({
            "type": "chunk", "t": i * 0.01, "rank": i % 2,
            "callsite": "cs", "events": 16, "stored_bytes": stored,
        }))
        lines.append(json.dumps({
            "type": "sample", "t": i * 0.01 + 0.005,
            "counters": {"sim.events": 100 * (i + 1), "record.flushes": i + 1},
            "gauges": {"queue.occupancy_high_water": float(i)},
        }))
    lines.append(json.dumps({"type": "end", "t": chunks * 0.01,
                             "trace_events": 5, "dropped_events": 0}))
    return lines


class TestMonitorState:
    def test_parses_all_line_types(self):
        state = MonitorState()
        n = state.feed_lines(synthetic_lines())
        assert n == 1 + 12 * 2 + 1
        assert state.meta["registry"] == "unit"
        assert len(state.samples) == 12
        assert len(state.chunks) == 12
        assert state.ended
        assert state.epochs[(0, "cs")] == (6, 96)
        assert state.latest_counter("sim.events") == 1200
        assert state.gauge_series("queue.occupancy_high_water") == [
            float(i) for i in range(12)
        ]
        assert not state.problems

    def test_anomaly_flagged_after_baseline(self):
        state = MonitorState()
        state.feed_lines(synthetic_lines(chunks=16, spike_at=12))
        assert len(state.anomalies) == 1
        anomaly = state.anomalies[0]
        assert anomaly.index == 12
        assert anomaly.bytes_per_event == pytest.approx(40.0)
        assert anomaly.zscore > 3.0
        assert "z=+" in anomaly.describe()

    def test_no_anomaly_before_min_chunks(self):
        state = MonitorState()
        state.feed_lines(
            synthetic_lines(chunks=ANOMALY_MIN_CHUNKS, spike_at=4)
        )
        assert state.anomalies == []

    def test_bad_lines_collected_not_raised(self):
        state = MonitorState()
        state.feed_lines(["not json", json.dumps({"type": "mystery"})])
        assert len(state.problems) == 2

    def test_render_sections(self):
        state = MonitorState()
        state.feed_lines(synthetic_lines(chunks=16, spike_at=12))
        text = render_monitor(state)
        assert "monitor: unit [finished]" in text
        assert "sim events: 1,600" in text
        assert "epoch progress" in text
        assert "rank 0 @ cs: epoch 8" in text
        assert "compression anomalies" in text
        assert "queue.occupancy_high_water:" in text
        assert "stream ended" in text

    def test_render_empty_state(self):
        text = render_monitor(MonitorState())
        assert "monitor: ? [live]" in text


class TestMetricsStreamWriter:
    def test_stream_is_schema_valid_and_ordered(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        registry = TelemetryRegistry()
        registry.counter("sim.events").add(41)
        with use_registry(registry):
            writer = MetricsStreamWriter(str(path), registry, interval=0.005)
            with writer:
                registry.counter("sim.events").add(1)
            assert writer.lines_written > 0
        lines = path.read_text().splitlines()
        assert validate_metrics_lines(lines) == []
        kinds = [json.loads(ln)["type"] for ln in lines]
        assert kinds[0] == "meta"
        assert kinds[-1] == "end"
        assert "sample" in kinds

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            MetricsStreamWriter(str(tmp_path / "m"), TelemetryRegistry(), interval=0)

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsStreamWriter(str(path), TelemetryRegistry()).start()
        first = writer.close()
        assert writer.close() == first

    def test_record_session_stream_end_to_end(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        result = RecordSession(
            make_program(),
            nprocs=NPROCS,
            network_seed=1,
            chunk_events=32,
            metrics_stream=str(path),
            metrics_interval=0.005,
        ).run()
        assert result.registry.enabled  # metrics_stream implies telemetry
        lines = path.read_text().splitlines()
        assert validate_metrics_lines(lines) == []
        state = MonitorState()
        state.feed_lines(lines)
        assert state.ended
        # every flushed chunk produced a chunk line
        assert len(state.chunks) == sum(
            len(result.archive.chunks(r)) for r in range(NPROCS)
        )
        assert state.latest_counter("record.flushes") == len(state.chunks)
        text = render_monitor(state)
        assert "[finished]" in text
        assert "epoch progress" in text

    def test_replay_session_stream_counts_delivered(self, tmp_path):
        program = make_program()
        record = RecordSession(
            program, nprocs=NPROCS, network_seed=1, chunk_events=32
        ).run()
        path = tmp_path / "replay.jsonl"
        ReplaySession(
            program,
            record.archive,
            network_seed=2,
            metrics_stream=str(path),
            metrics_interval=0.005,
        ).run()
        state = MonitorState()
        state.feed_lines(path.read_text().splitlines())
        assert validate_metrics_lines(path.read_text().splitlines()) == []
        assert state.latest_counter("replay.delivered_events") == (
            record.total_receive_events()
        )
