"""ReplayController bookkeeping: what it must *not* keep, and what a parked
call may reuse.

The controller used to remember the id of every receive it ever stripped or
filled (one entry per receive, for the whole run) only to skip those
requests when reading the completion log. That skip can never fire — a
stripped request left the log when it was stripped, a request enters the
log exactly once, and a filled slot is delivered before the log is read
again — so the set is gone; the first test pins the argument by watching
every log read of whole replays.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.replay import RecordSession, ReplaySession, assert_replay_matches
from repro.replay.replayer import ReplayController
from repro.sim.datatypes import RequestState
from repro.sim.network import LatencyModel
from repro.workloads import make_workload

from tests.integration.test_replay_modes import window1_program
from tests.sim.helpers import run_program


class LogWatchingController(ReplayController):
    """Fails the run if a free slot (stripped: COMPLETED, no message) is ever
    found in a completion log — the one case the per-request id set caught."""

    log_reads = 0

    def _absorb_arrivals(self, mailbox, filters, state):
        LogWatchingController.log_reads += 1
        for req in mailbox.completion_log:
            assert not (
                req.state is RequestState.COMPLETED and req.message is None
            ), "a stripped request re-entered the completion log"
        super()._absorb_arrivals(mailbox, filters, state)


#: case -> (program, ranks, does the record carry the assist column)
CASES = {
    "mcb16": lambda: (
        make_workload("mcb", 16, particles_per_rank=12, seed=5)[0], 16, True
    ),
    "unstructured12": lambda: (
        make_workload("unstructured", 12, vertices=48, iterations=2, seed=5)[0],
        12,
        True,
    ),
    "window1": lambda: (window1_program(per_sender=8), 6, True),
    # the paper-exact record: the LMC path strips and fills the same way
    "window1-lmc": lambda: (window1_program(per_sender=8), 6, False),
}


@pytest.mark.parametrize("case", CASES)
def test_stripped_requests_never_reenter_the_completion_log(case):
    program, nprocs, assist = CASES[case]()
    recorded = RecordSession(
        program, nprocs=nprocs, network_seed=3, replay_assist=assist
    ).run()
    LogWatchingController.log_reads = 0
    controller = LogWatchingController(recorded.archive)
    engine, _ = run_program(nprocs, program, network_seed=8, controller=controller)
    assert LogWatchingController.log_reads > 0
    assert controller.outcomes == recorded.outcomes
    assert not any(controller.undelivered_summary().values())
    # What the controller still holds once the run is over is bounded by
    # what is outstanding — not by how many receives the run delivered:
    # no parked call, empty pools — every queued message was let go at
    # its delivery — and logs holding only completions no callsite has
    # claimed yet.
    assert recorded.total_receive_events() > 4 * nprocs
    for state in controller.callsite_states():
        assert state.parked_call is None and state.parked_filters is None
        assert state.pooled_count == 0 and not state.pooled_clocks()
        assert not any(
            msg is not None
            for queue in state.arrived_per_sender.values()
            for msg in queue
        )
    for proc in engine.procs:
        for req in proc.mailbox.completion_log:
            assert req.state is RequestState.COMPLETED and req.message is not None


def test_delivered_summary_reads_the_archive_once():
    program, _ = make_workload("mcb", 6, particles_per_rank=10, seed=5)
    recorded = RecordSession(
        program, nprocs=6, network_seed=3, chunk_events=8
    ).run()
    replayed = ReplaySession(program, recorded.archive, network_seed=9).run()
    controller = replayed.controller
    with mock.patch.object(
        recorded.archive,
        "chunks_by_callsite",
        side_effect=AssertionError("summary must not rebuild callsite maps"),
    ):
        summary = controller.delivered_summary()
    assert summary
    for (rank, callsite), (delivered, total) in summary.items():
        chunks = recorded.archive.chunks_by_callsite(rank)[callsite]
        assert delivered == total == sum(c.num_events for c in chunks)


def test_reyielded_call_object_is_scanned_afresh():
    """A program may yield the *same* ``MFCall`` object again. What one scan
    of its requests found is reused only while that call stays parked —
    once it returns, its send is delivered and must not ride along again."""

    def program(ctx):
        if ctx.rank == 1:
            ctx.isend(0, "a", tag=3)
            yield ctx.compute(2e-3)  # "b" leaves long after the first poll
            ctx.isend(0, "b", tag=3)
            yield from ctx.recv(source=0, tag=9)
            return None
        send = ctx.isend(1, "hello", tag=9)
        first, second = ctx.irecv(source=1, tag=3), ctx.irecv(source=1, tag=3)
        call = ctx.testsome([send, first, second], callsite="poll")
        yield ctx.compute(1e-3)  # record: "a" is in by now, "b" is not
        got, polls = [], 0
        while len(got) < 2:
            res = yield call
            polls += 1
            got += [m.payload for m in res.messages if m is not None]
            yield ctx.compute(1e-4)
        return tuple(got), polls

    recorded = RecordSession(program, nprocs=2, network_seed=1).run()
    payloads, polls = recorded.app_results[0]
    assert payloads == ("a", "b") and polls > 2  # the call object was re-yielded
    # a network slow enough that the replayed poll parks before it matches
    slow = LatencyModel(base=5e-3, jitter_mean=0.0)
    replayed = ReplaySession(
        program, recorded.archive, network_seed=2, latency=slow, telemetry=True
    ).run()
    assert replayed.registry.counters()["replay.blocked_polls"] > 0
    assert_replay_matches(recorded, replayed)
