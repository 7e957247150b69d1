"""Shared fixtures: the paper's worked example and cached workload runs."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.replay.session import RecordSession
from repro.workloads import mcb


#: selected with ``--hypothesis-profile=ci`` by the CI step that runs the
#: codec differential suite on its own: more examples for every property
#: that does not fix its own count, and no per-example deadline on shared
#: runners.
settings.register_profile("ci", max_examples=400, deadline=None)


def paper_outcome_stream(callsite: str = "A") -> list[MFOutcome]:
    """The exact 11-row recording table of Figure 4 as an outcome stream.

    Events in order: match (0,2); two unmatched tests; a Testsome matching
    (0,13) and (2,8) together (the with_next pair); matches (1,8), (0,15),
    (1,19); three unmatched; match (0,17); one unmatched; match (0,18).
    """
    m = lambda r, c: MFOutcome(callsite, MFKind.TEST, (ReceiveEvent(r, c),))
    u = MFOutcome(callsite, MFKind.TEST, ())
    pair = MFOutcome(
        callsite, MFKind.TESTSOME, (ReceiveEvent(0, 13), ReceiveEvent(2, 8))
    )
    return [m(0, 2), u, u, pair, m(1, 8), m(0, 15), m(1, 19), u, u, u, m(0, 17), u, m(0, 18)]


@pytest.fixture
def paper_outcomes() -> list[MFOutcome]:
    return paper_outcome_stream()


@pytest.fixture(scope="session")
def mcb_record():
    """One cached MCB record run shared by read-only tests."""
    cfg = mcb.MCBConfig(nprocs=9, particles_per_rank=40, seed=11)
    program = mcb.build_program(cfg)
    result = RecordSession(program, nprocs=9, network_seed=4, chunk_events=64).run()
    return cfg, program, result
