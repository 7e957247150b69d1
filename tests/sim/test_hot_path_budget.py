"""Deterministic budget for the per-event hot path: Python calls per engine event.

Wall-clock gates are noise on shared CI runners; the number of Python-level
function calls a seeded run makes is not — it repeats exactly. This test
counts ``call`` events (``sys.setprofile``: one per Python function entry
and per generator resumption; C functions are not counted) over an 8-rank
MCB record and its replay and holds them to a budget: record to 85% of
what the commit *before* the fused MF-call path made, replay to 8.5 calls
per engine event (it makes 8.2 since the replayer hands messages out of
per-sender queues inside ``decide``; 10.4 before). Every Python call put
back on the per-event path (a wrapper around ``evaluate``, a property in
the recorder hook, a generator expression per poll, a ``peek``/``consume``
pair per MF call) moves the count by thousands — the failure message
prints the distance to the reference counts — and a return to an old
chain fails here, on any machine. Record's count may not rise at all:
that side was not meant to move when replay's did.

Counts were taken on CPython 3.11; later versions inline comprehensions
and only count fewer. To re-measure after an intended change run::

    PYTHONPATH=src python tests/sim/test_hot_path_budget.py
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.replay import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 8
ENGINE_EVENTS = 7707

#: Python calls for the whole run at the parent commit (15.6 and 16.8 per
#: engine event) ...
PARENT_CALLS = {"record": 120_080, "replay": 129_428}
#: ... with the fused path (8.3 and 10.4 per event) ...
FUSED_CALLS = {"record": 64_067, "replay": 79_890}
#: ... and with the replayer's per-sender queues (replay 8.2 per event;
#: record untouched — ``MFCall.has_send`` is learned in the loop that
#: already learned ``has_recv``, so it adds no call)
QUEUED_CALLS = {"record": 64_067, "replay": 62_936}
BUDGET = {
    "record": int(0.85 * PARENT_CALLS["record"]),
    "replay": int(8.5 * ENGINE_EVENTS),
}


def count_calls(fn):
    """Run ``fn()``; return (Python ``call`` events it made, its result).

    The cyclic collector is off while counting: when it runs is decided by
    allocation history, and the finalizers of whatever garbage earlier
    tests left behind are Python calls too.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return calls, result


def measure() -> dict[str, tuple[int, int]]:
    """mode -> (Python calls, engine events) for one record and its replay."""
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=40, seed=3)
    record_calls, recorded = count_calls(
        lambda: RecordSession(
            program, nprocs=NPROCS, network_seed=5, keep_outcomes=False
        ).run()
    )
    replay_calls, replayed = count_calls(
        lambda: ReplaySession(
            program, recorded.archive, network_seed=9, keep_outcomes=False
        ).run()
    )
    return {
        "record": (record_calls, recorded.stats.total_events),
        "replay": (replay_calls, replayed.stats.total_events),
    }


@pytest.fixture(scope="module")
def measured():
    # the first replay of a process fills the ``isinstance(x, <ABC>)`` caches
    # (18 calls into ``abc`` that no later run makes); alone, this file is first
    measure()
    return measure()


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler owns sys.setprofile"
)
class TestHotPathBudget:
    def test_count_repeats_exactly(self, measured):
        assert measure() == measured

    @pytest.mark.parametrize("mode", ["record", "replay"])
    def test_calls_per_event_within_budget(self, measured, mode):
        calls, events = measured[mode]
        assert events == ENGINE_EVENTS  # same run as the one that was sized
        assert calls <= BUDGET[mode], (
            f"{mode}: {calls} Python calls for {events} engine events "
            f"({calls / events:.2f}/event); budget {BUDGET[mode]}; references: "
            f"{PARENT_CALLS[mode]} before the fused MF-call path, "
            f"{FUSED_CALLS[mode]} with it, {QUEUED_CALLS[mode]} with the "
            "replayer's per-sender queues"
        )

    def test_record_count_did_not_move(self, measured):
        # equal on CPython 3.11, where the counts were taken; fewer later
        assert measured["record"][0] <= QUEUED_CALLS["record"]


if __name__ == "__main__":
    for mode, (calls, events) in measure().items():
        print(
            f"{mode}: {calls} calls / {events} events = {calls / events:.2f} per event "
            f"(references {PARENT_CALLS[mode]} / {FUSED_CALLS[mode]} / "
            f"{QUEUED_CALLS[mode]}, budget {BUDGET[mode]})"
        )
