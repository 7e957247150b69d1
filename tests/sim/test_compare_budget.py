"""Deterministic budget for ``diff``'s compare step: Python calls per compare.

The companion of ``test_hot_path_budget.py`` for the analysis side:
``compare_columns`` — two runs' receive columns in, a ``DivergenceReport``
out — is numpy passes plus a ``Delivery`` per row a report *shows*, so the
Python calls it makes depend on how many ranks diverge and how wide the
context and pool windows are, not on how many receives the runs made. The
object compare it replaced (``tests/analysis/oracles.py``: a dataclass per
receive, a recursive merge sort, dicts of tuples) makes a few calls per
receive: on the 8-rank MCB pair below (1,926 receives) five times the
budget, and one Python call put back per receive is six times the slack
the budget leaves — a return to per-receive objects fails here, on any
machine.

Counts were taken on CPython 3.11; later versions inline comprehensions
and only count fewer. To re-measure after an intended change run::

    PYTHONPATH=src:. python tests/sim/test_compare_budget.py
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis import RehydratedRun
from repro.analysis.divergence import compare_columns
from repro.replay import RecordSession
from repro.workloads import make_workload
from tests.analysis.oracles import diff_runs_oracle
from tests.sim.test_hot_path_budget import count_calls

NPROCS = 8
RECEIVES = (967, 959)  # matched receives of the two runs

#: Python calls of the parent's object compare on this pair (outcome
#: mappings in, report out) ...
OBJECT_COMPARE_CALLS = 8_251
#: ... and of the array compare (columns in, report out).
ARRAY_COMPARE_CALLS = 1_248
BUDGET = int(1.25 * ARRAY_COMPARE_CALLS)


def pair():
    """The hot-path test's MCB program under two network seeds."""
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=40, seed=3)
    return [
        RecordSession(program, nprocs=NPROCS, network_seed=seed).run().outcomes
        for seed in (5, 9)
    ]


def measure() -> dict[str, int]:
    outcomes = pair()
    columns = [RehydratedRun.from_outcomes(o) for o in outcomes]
    compare_columns(*columns), diff_runs_oracle(*outcomes)  # imports, numpy set-up
    array_calls, report = count_calls(lambda: compare_columns(*columns))
    object_calls, expect = count_calls(lambda: diff_runs_oracle(*outcomes))
    assert report.to_json() == expect.to_json() and not report.identical
    assert (report.events_a, report.events_b) == RECEIVES
    return {"array": array_calls, "object": object_calls}


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler owns sys.setprofile"
)
class TestCompareBudget:
    def test_count_repeats_exactly(self, measured):
        assert measure() == measured

    def test_compare_within_budget(self, measured):
        assert measured["array"] <= BUDGET, (
            f"compare_columns: {measured['array']} Python calls for "
            f"{sum(RECEIVES)} receives; budget {BUDGET}; references: "
            f"{ARRAY_COMPARE_CALLS} on columns, {OBJECT_COMPARE_CALLS} with an "
            "object per receive"
        )

    def test_the_object_compare_would_not_pass(self, measured):
        # equal on CPython 3.11, where the counts were taken; fewer later
        assert BUDGET < OBJECT_COMPARE_CALLS // 5
        assert measured["object"] <= OBJECT_COMPARE_CALLS


if __name__ == "__main__":
    counts = measure()
    print(
        f"array compare: {counts['array']} calls, object compare: "
        f"{counts['object']} calls for {RECEIVES} receives (references "
        f"{ARRAY_COMPARE_CALLS} / {OBJECT_COMPARE_CALLS}, budget {BUDGET})"
    )
