"""Deterministic budget for the per-event hot path: Python calls per engine event.

Wall-clock gates are noise on shared CI runners; the number of Python-level
function calls a seeded run makes is not — it repeats exactly. This test
counts ``call`` events (``sys.setprofile``: one per Python function entry
and per generator resumption; C functions are not counted) over an 8-rank
MCB record and its replay and holds both to 6.5 calls per engine event
(5.75 and 5.38 since the simulator layer was finished: the workload
generators yield shared ``Compute`` and ``MFCall`` instances and build
their fixed structure once, the mailbox tests its filters inline,
``Network.post`` is one frame, ``MFCall`` validates in its ``__init__``
and the engine hands the controller its telemetry registry; 8.24 and
8.08 before). An 8-rank
``unstructured`` run pins the wide-``Waitsome`` replay path
(``assign_slots``, ``_absorb_arrivals``) the same way: its counts may not
rise. Every Python call put back on the per-event path (a wrapper around
``evaluate``, a property in the recorder hook, a generator expression per
poll, a filter method per posted receive) moves the counts by thousands —
the failure message prints the distance to the reference counts — and a
return to an old chain fails here, on any machine.

The session's opt-in observers are held the same way. A ledger appends
one line after the run: it adds a fixed number of calls to the run's
thread, counted at two MCB sizes whose engine events differ by more than
4x. A hook that fires per event moves the difference between the two by
thousands.

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
#: the runs counted, by workload: its parameters and its engine events
#: (record and replay make the same number)
RUNS = {
    "mcb": ({"particles_per_rank": 40, "seed": 3}, 7707),
    "unstructured": ({"vertices": 256, "iterations": 10, "seed": 3}, 801),
}
ENGINE_EVENTS = RUNS["mcb"][1]

#: MCB: Python calls for the whole run before the fused MF-call path (15.6
#: and 16.8 per engine event) ...
PARENT_CALLS = {"record": 120_080, "replay": 129_428}
#: ... with it (8.3 and 10.4 per event) ...
FUSED_CALLS = {"record": 64_067, "replay": 79_890}
#: ... with the replayer's per-sender queues (8.3 and 8.2; 63,513 and
#: 62,254 by the time the simulator layer was finished) ...
QUEUED_CALLS = {"record": 64_067, "replay": 62_936}
#: ... and with the simulator layer finished (5.75 and 5.38)
SIMULATOR_CALLS = {"record": 44_328, "replay": 41_496}
BUDGET = {"record": int(6.5 * ENGINE_EVENTS), "replay": int(6.5 * ENGINE_EVENTS)}

#: unstructured: before the simulator layer was finished (20.3 and 21.2 per
#: event: a halo message is more engine work than a poll) and after
UNSTRUCTURED_BEFORE = {"record": 16_292, "replay": 16_979}
UNSTRUCTURED_CALLS = {"record": 13_806, "replay": 13_333}


#: MCB sizes for the observer gates, particles per rank -> engine events
OBSERVER_SIZES = {5: 1411, 40: 7707}
#: calls each observer adds to one record over a bare one, at either size
#: (measured: 1,305 at both)
OBSERVER_BUDGET = {"ledger": 1_400}
#: how far the added calls may differ between the two sizes: not per-event
#: work (measured: 0)
OBSERVER_GROWTH = 16


def observer_kwargs(name, ledger_path):
    return {name: str(ledger_path)}


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


def measure() -> dict[tuple[str, str], tuple[int, int]]:
    """(workload, mode) -> (Python calls, engine events) for one record of
    each workload and its replay."""
    counts = {}
    for workload, (params, _) in RUNS.items():
        program, _ = make_workload(workload, NPROCS, **params)
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
        counts[workload, "record"] = (record_calls, recorded.stats.total_events)
        counts[workload, "replay"] = (replay_calls, replayed.stats.total_events)
    return counts


@pytest.fixture(scope="module")
def measured():
    # the first replay of a process fills the ``isinstance(x, <ABC>)`` caches
    # (18 calls into ``abc`` that no later run makes); alone, this file is first
    measure()
    return measure()


def record_calls(ppr, **kwargs):
    """(Python calls, engine events) for one 8-rank MCB record."""
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=ppr, seed=3)
    calls, run = count_calls(
        lambda: RecordSession(
            program, nprocs=NPROCS, network_seed=5, keep_outcomes=False, **kwargs
        ).run()
    )
    return calls, run.stats.total_events


@pytest.fixture(scope="module")
def observer_extra(tmp_path_factory):
    """(observer, particles per rank) -> calls added over a bare record."""
    tmp = tmp_path_factory.mktemp("observers")
    small = min(OBSERVER_SIZES)
    for name in OBSERVER_BUDGET:  # first use imports and warms caches
        record_calls(small, **observer_kwargs(name, tmp / "warm.jsonl"))
    extra = {}
    for ppr, events in OBSERVER_SIZES.items():
        bare, measured_events = record_calls(ppr)
        assert measured_events == events  # same runs as the ones sized
        for name in OBSERVER_BUDGET:
            ledger = tmp / f"runs-{ppr}.jsonl"
            calls, _ = record_calls(ppr, **observer_kwargs(name, ledger))
            extra[name, ppr] = calls - bare
    return extra


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler owns sys.setprofile"
)
class TestHotPathBudget:
    def test_count_repeats_exactly(self, measured):
        assert measure() == measured

    @pytest.mark.parametrize("mode", ["record", "replay"])
    def test_calls_per_event_within_budget(self, measured, mode):
        calls, events = measured["mcb", mode]
        assert events == ENGINE_EVENTS  # same run as the one that was sized
        assert calls <= BUDGET[mode], (
            f"{mode}: {calls} Python calls for {events} engine events "
            f"({calls / events:.2f}/event); budget {BUDGET[mode]}; references: "
            f"{PARENT_CALLS[mode]} before the fused MF-call path, "
            f"{FUSED_CALLS[mode]} with it, {QUEUED_CALLS[mode]} with the "
            f"replayer's per-sender queues, {SIMULATOR_CALLS[mode]} with the "
            "simulator layer finished"
        )

    def test_record_count_did_not_move(self, measured):
        # equal on CPython 3.11, where the counts were taken; fewer later
        assert measured["mcb", "record"][0] <= SIMULATOR_CALLS["record"]

    @pytest.mark.parametrize("mode", ["record", "replay"])
    def test_unstructured_count_did_not_rise(self, measured, mode):
        calls, events = measured["unstructured", mode]
        assert events == RUNS["unstructured"][1]
        assert calls <= UNSTRUCTURED_CALLS[mode], (
            f"unstructured {mode}: {calls} Python calls for {events} engine "
            f"events ({calls / events:.2f}/event); pinned at "
            f"{UNSTRUCTURED_CALLS[mode]}, {UNSTRUCTURED_BEFORE[mode]} before "
            "the simulator layer was finished"
        )

    @pytest.mark.parametrize("name", sorted(OBSERVER_BUDGET))
    def test_observer_adds_a_constant(self, observer_extra, name):
        small, large = sorted(OBSERVER_SIZES)
        added = {ppr: observer_extra[name, ppr] for ppr in (small, large)}
        assert added[large] <= OBSERVER_BUDGET[name], (
            f"{name}: +{added[large]} calls over a bare record; "
            f"budget {OBSERVER_BUDGET[name]}"
        )
        assert abs(added[large] - added[small]) <= OBSERVER_GROWTH, (
            f"{name}: +{added[small]} calls at {OBSERVER_SIZES[small]} engine "
            f"events but +{added[large]} at {OBSERVER_SIZES[large]}: "
            "something runs per event on the run's thread"
        )


if __name__ == "__main__":
    for (workload, mode), (calls, events) in measure().items():
        print(f"{workload} {mode}: {calls} calls / {events} events = {calls / events:.2f} per event")
