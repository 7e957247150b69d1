"""The replayer's stall watchdog: its retry tick, reports, divergence candidates.

Without replay assist a blocked callsite re-probes on clock-beacon retry
ticks, so a replay that can never finish does not drain the event heap.
The tick itself watches for the fixpoint (DESIGN.md §5.4) and raises
:class:`~repro.errors.ReplayStallError`, with a report naming the
first-divergence candidate. No thread and no deadline are involved.

The integration scenario: a record made *without* replay assist is
replayed against a program whose message stream was truncated (every
sender sends fewer messages than recorded). The MCB grid that wedges with
no fault at all is in ``tests/replay/test_stall.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ReplayStallError
from repro.replay import DivergenceCandidate, RecordSession, ReplaySession, StallReport
from repro.replay.diagnostics import first_divergence_candidate
from repro.sim import Engine, Network
from repro.workloads import make_workload
from tests.replay.test_stall import record_mcb

NPROCS = 4


class TestProgressWatchdog:
    """The frozen shape needs a whole round of ticks, each starting from the
    state the previous one left, in which nothing could still move."""

    @pytest.fixture
    def stalled(self):
        program, recorded = record_mcb(4, 30)
        session = ReplaySession(program, recorded.archive, network_seed=9)
        with pytest.raises(ReplayStallError, match="round of retries"):
            session.run()
        controller = session._engine.controller
        return controller, sorted(controller._retry_pending)

    def test_engine_progress_is_the_engine_event_count(self):
        """A stall unwinds the event loop by exception; the engine still
        publishes how many events it dispatched."""

        def program(ctx):
            yield ctx.compute(1e-6)
            if ctx.rank == 0:
                yield from ctx.recv(source=1)
                raise RuntimeError("stop")
            ctx.isend(0, ctx.rank)

        engine = Engine(2, program, network=Network(seed=1))
        with pytest.raises(RuntimeError, match="stop"):
            engine.run()
        # two starts, two resumes after the compute, the delivery to rank 0
        # and rank 0's resume out of its receive, which raises
        assert engine.stats.total_events == 6

    def test_fires_when_progress_stops(self, stalled):
        controller, ranks = stalled
        with pytest.raises(ReplayStallError, match="round of retries"):
            for rank in ranks * 2:
                controller._check_stall(rank)

    def test_stays_quiet_while_progress_moves(self, stalled):
        controller, ranks = stalled
        floors = controller._floors[0]
        for rank in ranks * 2:
            floors[1] = floors.get(1, -1) + 1
            controller._check_stall(rank)

    def test_stop_before_deadline_never_fires(self, stalled):
        """The tick that saw a change does not count toward the round."""
        controller, ranks = stalled
        controller._quiet_signature = None
        for rank in ranks:
            controller._check_stall(rank)
        with pytest.raises(ReplayStallError):
            controller._check_stall(ranks[0])

    def test_a_beacon_in_flight_defers_it(self, stalled):
        controller, ranks = stalled
        controller._beacons_in_flight.add((0, 1))
        for rank in ranks * 2:
            controller._check_stall(rank)
        controller._beacons_in_flight.clear()
        with pytest.raises(ReplayStallError):
            for rank in ranks * 2:
                controller._check_stall(rank)


def synthetic(messages_per_rank):
    return make_workload(
        "synthetic", NPROCS, seed="3",
        messages_per_rank=str(messages_per_rank), fanout="2",
    )[0]


@pytest.fixture(scope="module")
def recorded():
    """8 messages per rank without assist; replayed against a program that
    sends 6, the record claims events no sender produces."""
    return RecordSession(
        synthetic(8), nprocs=NPROCS, network_seed=1, replay_assist=False
    ).run()


class TestStallIntegration:
    def test_truncated_record_stream_raises_stall(self, recorded):
        session = ReplaySession(synthetic(6), recorded.archive, network_seed=2)
        with pytest.raises(ReplayStallError) as info:
            session.run()
        report = info.value.report
        assert isinstance(report, StallReport)
        assert report.delivered == info.value.delivered > 0  # wedged mid-run
        assert all(n >= 0 for n in report.last_epoch.values())
        # the record claims events the truncated senders never produced
        assert report.divergence.kind == "missing-event"
        assert 0 <= report.divergence.sender < NPROCS
        text = report.render()
        assert "first-divergence candidate" in text
        assert "never arrived" in text
        assert "delivered events per (rank, callsite)" in text

    def test_salvage_policy_degrades_to_partial_result(self, recorded):
        result = ReplaySession(
            synthetic(6), recorded.archive, network_seed=2, mode="salvage"
        ).run()
        assert result.mode == "replay-stalled"
        divergence = result.stall.divergence
        assert result.truncated_at == (divergence.rank, divergence.callsite)
        assert result.total_receive_events() == result.stall.delivered > 0

    def test_deadline_in_seconds_shorthand(self, recorded):
        """There is no deadline left to give: the keyword is gone."""
        with pytest.raises(TypeError):
            ReplaySession(synthetic(8), recorded.archive, watchdog=0.5)

    def test_healthy_replay_unbothered_by_watchdog(self, recorded):
        result = ReplaySession(synthetic(8), recorded.archive, network_seed=2).run()
        assert result.mode == "replay"
        assert result.stall is None
        assert result.outcomes == recorded.outcomes


class TestDivergenceCandidate:
    def test_no_states_means_no_candidate(self):
        class NoStates:
            def callsite_states(self):
                return []

        assert first_divergence_candidate(NoStates()) is None

    def test_describe_both_kinds(self):
        missing = DivergenceCandidate("missing-event", 1, "cs", 2, 10)
        assert "never arrived" in missing.describe()
        refused = DivergenceCandidate("unexpected-arrival", 1, "cs", 2, 10)
        assert "absent from the active record chunk" in refused.describe()

    def test_candidate_from_stalled_controller(self, recorded):
        session = ReplaySession(synthetic(6), recorded.archive, network_seed=2)
        with pytest.raises(ReplayStallError) as info:
            session.run()
        # rebuilding from the controller reproduces the attached candidate
        controller = session._engine.controller
        assert first_divergence_candidate(controller) == info.value.report.divergence
