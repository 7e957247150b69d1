"""Replay watchdog: stall detection, reports, divergence candidates.

The integration scenario is the one the watchdog exists for: a record
made *without* replay assist is replayed against a program whose message
stream was truncated (one sender sends fewer messages than recorded).
The blocked callsite then re-probes through clock-beacon retry ticks
forever — no deadlock, no exception, just an engine that never drains.
The watchdog turns that spin into a structured
:class:`~repro.errors.ReplayStallError` naming the first-divergence
candidate.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReplayStallError
from repro.obs import (
    DivergenceCandidate,
    ProgressWatchdog,
    StallReport,
    WatchdogConfig,
    first_divergence_candidate,
)
from repro.obs.watchdog import resolve_watchdog
from repro.replay.session import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 4


class TestWatchdogConfig:
    def test_defaults(self):
        config = WatchdogConfig()
        assert config.deadline == 30.0
        assert config.policy == "raise"
        assert config.interval == 1.0  # deadline/8 clamped to 1 s

    def test_interval_derivation(self):
        assert WatchdogConfig(deadline=0.08).interval == pytest.approx(0.01)
        assert WatchdogConfig(deadline=0.001).interval == 0.001  # floor
        assert WatchdogConfig(deadline=100, poll_interval=0.25).interval == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(deadline=0)
        with pytest.raises(ValueError):
            WatchdogConfig(policy="explode")

    def test_resolve(self):
        assert resolve_watchdog(None) is None
        assert resolve_watchdog(2.5) == WatchdogConfig(deadline=2.5)
        config = WatchdogConfig(deadline=1, policy="salvage")
        assert resolve_watchdog(config) is config
        with pytest.raises(TypeError):
            resolve_watchdog(True)
        with pytest.raises(TypeError):
            resolve_watchdog("soon")


class FakeEngine:
    def __init__(self):
        self.aborted_with = None
        self.abort_event = threading.Event()

    def request_abort(self, exc):
        self.aborted_with = exc
        self.abort_event.set()


class TestProgressWatchdog:
    def test_engine_progress_is_the_engine_event_count(self):
        from repro.obs.watchdog import engine_progress

        class FakeStats:
            total_events = 7

        class CountingEngine:
            stats = FakeStats()

        progress = engine_progress(CountingEngine())
        assert progress() == 7
        FakeStats.total_events = 9
        assert progress() == 9

    def test_fires_when_progress_stops(self):
        engine = FakeEngine()
        dog = ProgressWatchdog(
            engine,
            progress=lambda: 7,
            config=WatchdogConfig(deadline=0.02, poll_interval=0.005),
        )
        with dog:
            assert engine.abort_event.wait(timeout=5.0)
        assert dog.fired
        exc = engine.aborted_with
        assert isinstance(exc, ReplayStallError)
        assert exc.progress == 7
        assert "no progress for 0.02s" in str(exc)

    def test_stays_quiet_while_progress_moves(self):
        engine = FakeEngine()
        counter = iter(range(10**9))
        dog = ProgressWatchdog(
            engine,
            progress=lambda: next(counter),
            config=WatchdogConfig(deadline=0.05, poll_interval=0.002),
        )
        with dog:
            time.sleep(0.2)
        assert not dog.fired
        assert engine.aborted_with is None

    def test_stop_before_deadline_never_fires(self):
        engine = FakeEngine()
        dog = ProgressWatchdog(
            engine, progress=lambda: 0, config=WatchdogConfig(deadline=60.0)
        )
        dog.start()
        dog.stop()
        assert not dog.fired
        assert engine.aborted_with is None


def record_no_assist(messages_per_rank=8):
    program, _ = make_workload(
        "synthetic", NPROCS, seed="3",
        messages_per_rank=str(messages_per_rank), fanout="2",
    )
    result = RecordSession(
        program, nprocs=NPROCS, network_seed=1, replay_assist=False
    ).run()
    return program, result


def truncated_program(messages_per_rank=6):
    """Same workload, but every rank sends fewer messages than recorded."""
    program, _ = make_workload(
        "synthetic", NPROCS, seed="3",
        messages_per_rank=str(messages_per_rank), fanout="2",
    )
    return program


class TestStallIntegration:
    @pytest.fixture(scope="class")
    def recorded(self):
        return record_no_assist()

    def test_truncated_record_stream_raises_stall(self, recorded):
        _, record = recorded
        session = ReplaySession(
            truncated_program(),
            record.archive,
            network_seed=2,
            watchdog=WatchdogConfig(deadline=0.5, poll_interval=0.02),
        )
        with pytest.raises(ReplayStallError) as info:
            session.run()
        report = info.value.report
        assert isinstance(report, StallReport)
        assert report.mode == "replay"
        assert report.progress > 0  # it wedged mid-run, not at the start
        assert report.last_epoch  # per-rank last epoch is populated
        assert all(n >= 0 for n in report.last_epoch.values())
        # the record claims events the truncated senders never produced
        assert isinstance(report.divergence, DivergenceCandidate)
        assert report.divergence.kind == "missing-event"
        assert 0 <= report.divergence.sender < NPROCS
        text = report.render()
        assert "first-divergence candidate" in text
        assert "never arrived" in text
        assert "delivered events per (rank, callsite)" in text

    def test_salvage_policy_degrades_to_partial_result(self, recorded):
        _, record = recorded
        session = ReplaySession(
            truncated_program(),
            record.archive,
            network_seed=2,
            watchdog=WatchdogConfig(
                deadline=0.5, poll_interval=0.02, policy="salvage"
            ),
        )
        result = session.run()
        assert result.mode == "replay-stalled"
        assert result.stall is not None
        assert result.truncated
        rank, callsite = result.truncated_at
        assert (rank, callsite) == (
            result.stall.divergence.rank,
            result.stall.divergence.callsite,
        )
        # the partial prefix is still a coherent replay result
        assert result.outcomes
        assert sum(len(s) for s in result.outcomes.values()) > 0

    def test_deadline_in_seconds_shorthand(self, recorded):
        _, record = recorded
        session = ReplaySession(
            truncated_program(),
            record.archive,
            network_seed=2,
            watchdog=0.5,
        )
        with pytest.raises(ReplayStallError):
            session.run()

    def test_healthy_replay_unbothered_by_watchdog(self, recorded):
        program, record = recorded
        result = ReplaySession(
            program,
            record.archive,
            network_seed=2,
            watchdog=WatchdogConfig(deadline=30.0),
        ).run()
        assert result.mode == "replay"
        assert result.stall is None
        assert result.outcomes == record.outcomes


class TestDivergenceCandidate:
    def test_no_states_means_no_candidate(self):
        class Plain:
            pass

        assert first_divergence_candidate(Plain()) is None

    def test_describe_both_kinds(self):
        missing = DivergenceCandidate("missing-event", 1, "cs", 2, 10)
        assert "never arrived" in missing.describe()
        refused = DivergenceCandidate("unexpected-arrival", 1, "cs", 2, 10)
        assert "absent from the active record chunk" in refused.describe()

    def test_candidate_from_stalled_controller(self):
        _, record = record_no_assist()
        session = ReplaySession(
            truncated_program(),
            record.archive,
            network_seed=2,
            watchdog=WatchdogConfig(deadline=0.5, poll_interval=0.02),
        )
        with pytest.raises(ReplayStallError) as info:
            session.run()
        # rebuilding from the controller reproduces the attached candidate
        controller = session._engine.controller
        candidate = first_divergence_candidate(controller)
        assert candidate == info.value.report.divergence
