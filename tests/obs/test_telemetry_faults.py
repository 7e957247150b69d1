"""Observability under injected storage faults (satellite of ISSUE 4).

A monitoring stream is only useful if it survives exactly the runs that
go wrong. These tests drive telemetry-enabled sessions through
:mod:`tests.faults` failures and assert that:

* the live metrics JSONL stays schema-valid after a mid-flush crash
  (every line is flushed before the next is started, so a dead process
  leaves a readable prefix plus the ``finally``-path end line);
* transient EIO storms (absorbed by the store's retry path) neither
  corrupt the stream nor lose chunk lines;
* replaying a no-assist record against a truncated message stream wedges
  — and the replayer turns the wedge into a
  :class:`~repro.errors.ReplayStallError` whose report names a
  first-divergence candidate, with the stall run's own metrics stream
  still schema-valid.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReplayStallError
from repro.obs import MonitorState, validate_metrics_lines
from repro.replay import RecordSession, ReplaySession
from repro.replay.durable_store import RetryPolicy
from tests.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads import make_workload

NPROCS = 4
FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.0)


def make_program(messages_per_rank=40):
    program, _ = make_workload(
        "synthetic", NPROCS, seed="3",
        messages_per_rank=str(messages_per_rank), fanout="2",
    )
    return program


def record_session(tmp_path, injector=None, metrics=None, **kwargs):
    return RecordSession(
        make_program(),
        nprocs=NPROCS,
        network_seed=1,
        chunk_events=32,
        store_dir=str(tmp_path / "archive"),
        store_opener=injector.open if injector else open,
        store_fsync=False,
        store_retry=FAST_RETRY,
        metrics_stream=str(metrics) if metrics else None,
        **kwargs,
    )


class TestStreamSurvivesCrash:
    def test_crash_leaves_schema_valid_stream(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        injector = FaultInjector(FaultPlan(crash_after_bytes=260))
        session = record_session(tmp_path, injector=injector, metrics=metrics)
        with pytest.raises(InjectedCrash):
            session.run()
        lines = metrics.read_text().splitlines()
        assert validate_metrics_lines(lines) == []
        state = MonitorState()
        state.feed_lines(lines)
        assert not state.problems
        # the crash unwound through the session's finally: the stream is
        # complete (end line present), not just a readable prefix.
        assert state.ended

    def test_every_line_is_complete_json(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        injector = FaultInjector(FaultPlan(crash_after_bytes=320))
        with pytest.raises(InjectedCrash):
            record_session(tmp_path, injector=injector, metrics=metrics).run()
        for line in metrics.read_text().splitlines():
            json.loads(line)  # would raise on a torn line


class TestStreamUnderTransientErrors:
    def test_retry_storm_keeps_stream_and_chunks(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        injector = FaultInjector(FaultPlan(transient_error_attempts=3))
        result = record_session(
            tmp_path, injector=injector, metrics=metrics
        ).run()
        lines = metrics.read_text().splitlines()
        assert validate_metrics_lines(lines) == []
        state = MonitorState()
        state.feed_lines(lines)
        assert state.ended
        # one chunk line per flushed chunk, EIO retries notwithstanding
        total_chunks = sum(
            len(result.archive.chunks(r)) for r in range(NPROCS)
        )
        assert len(state.chunks) == total_chunks
        assert state.latest_counter("record.flushes") == total_chunks


class TestWatchdogOnTruncatedRecordReplay:
    """A no-assist record replayed against a truncated message stream
    (every sender produces fewer messages than recorded) wedges; the
    replayer's own stall watchdog, its retry tick, turns the wedge into a
    diagnosis and the run's own monitoring stream survives it."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return RecordSession(
            make_program(messages_per_rank=8),
            nprocs=NPROCS,
            network_seed=1,
            replay_assist=False,
        ).run()

    def test_stall_report_fires_instead_of_hanging(self, recorded, tmp_path):
        metrics = tmp_path / "stall-metrics.jsonl"
        session = ReplaySession(
            make_program(messages_per_rank=6),
            recorded.archive,
            network_seed=2,
            metrics_stream=str(metrics),
        )
        with pytest.raises(ReplayStallError) as info:
            session.run()
        report = info.value.report
        assert report is not None
        assert report.divergence is not None
        assert report.divergence.kind == "missing-event"
        assert "first-divergence candidate" in report.render()
        # the stalled run's own monitoring stream is intact
        lines = metrics.read_text().splitlines()
        assert validate_metrics_lines(lines) == []
        state = MonitorState()
        state.feed_lines(lines)
        assert state.ended
        assert state.latest_counter("replay.delivered_events") == report.delivered
