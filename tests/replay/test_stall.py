"""Stall detection: the replayer raises ``ReplayStallError`` at the fixpoint.

Without replay assist, delivery follows the paper's Axiom 1 and a blocked
callsite re-probes on clock-beacon retry ticks, so a replay that can never
finish does not drain the event heap: it would spin until ``max_events``.
The retry tick decides instead. Once no event can release a parked rank
(DESIGN.md §5.4) it raises, and the session attaches a report naming the
first-divergence candidate. The truncated-stream cases and the unit
checks of the tick are in ``tests/obs/test_watchdog.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ReplayStallError
from repro.replay import (
    DivergenceCandidate,
    RecordSession,
    ReplaySession,
    StallReport,
    assert_replay_matches,
)
from repro.workloads.mcb import MCBConfig, build_program

#: (ranks, particles per rank) of MCB recorded without assist at network
#: seed 1 and replayed at seed 9, 64-event chunks: these wedge ...
MCB_STALLS = [(4, 30), (4, 50), (8, 10), (9, 20), (12, 10), (16, 10)]
#: ... and these replay.
MCB_REPLAYS = [(4, 10), (4, 20), (9, 10)]


def record_mcb(nprocs, particles):
    program = build_program(
        MCBConfig(nprocs=nprocs, particles_per_rank=particles, seed=7)
    )
    recorded = RecordSession(
        program, nprocs=nprocs, network_seed=1, replay_assist=False, chunk_events=64
    ).run()
    return program, recorded


def grid_id(case):
    return "x".join(map(str, case))


class TestMCBGrid:
    @pytest.mark.parametrize("case", MCB_STALLS, ids=grid_id)
    def test_wedge_raises_within_a_second(self, case):
        program, recorded = record_mcb(*case)
        t0 = time.perf_counter()
        with pytest.raises(ReplayStallError) as info:
            ReplaySession(program, recorded.archive, network_seed=9).run()
        assert time.perf_counter() - t0 < 1.0
        report = info.value.report
        assert isinstance(report, StallReport)
        assert report.delivered == info.value.delivered
        assert 0 < report.delivered < recorded.total_receive_events()
        assert isinstance(report.divergence, DivergenceCandidate)
        assert "first-divergence candidate" in report.render()

    @pytest.mark.parametrize("case", MCB_REPLAYS, ids=grid_id)
    def test_healthy_case_replays(self, case):
        program, recorded = record_mcb(*case)
        replayed = ReplaySession(program, recorded.archive, network_seed=9).run()
        assert replayed.stall is None
        assert_replay_matches(recorded, replayed)
