"""Deterministic budget for what a run keeps: traced bytes per extra message.

A delivered message belongs to the application, which drops it when it is
done; the simulator and the recorder may not keep it. Only the replay
controller reads a mailbox's completion log (it drains the log into its
arrival pools), so on a record or a baseline run the engine gives the
mailboxes no log, and a completed receive ``Request``, its ``Message`` and
the payload are freed when the application lets go of them.

This test runs 8-rank MCB at two sizes whose message counts differ by more
than 4x. For each run it takes the bytes ``tracemalloc`` traced as
allocated during the run and still allocated after it, with the run's
``RunResult`` kept, and divides the difference between the two sizes by
the extra messages:

* a baseline keeps nothing per message (measured: under 1 B; 460 B while
  every completed receive stayed in its mailbox's log);
* a record to a ``store_dir`` with ``keep_outcomes=False`` keeps its
  in-memory ``RecordArchive``, which is the record (measured: 30 B; 487 B
  with the log).

A structure that holds something per message moves the slope by tens of
bytes; a constant (a cache filled on first use, a buffer) does not move
it. Traced bytes repeat on any machine up to the allocator's size classes.
To re-measure after an intended change run::

    PYTHONPATH=src python tests/sim/test_retained_memory.py
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from repro.replay import BaselineSession, RecordSession
from repro.workloads import make_workload

NPROCS = 8
#: MCB particles per rank: the two sizes compared (about 150 and 960 messages)
SIZES = (5, 40)
#: traced bytes a run may keep per extra message, by mode
BUDGET = {"baseline": 16, "record": 128}
#: the same slopes while every completed receive stayed in the log
LOGGED = {"baseline": 460, "record": 487}


def retained(mode: str, ppr: int, store: Path) -> tuple[int, int]:
    """(bytes allocated during one run and still held after it, messages)."""
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=ppr, seed=3)
    if mode == "record":
        session = RecordSession(
            program, nprocs=NPROCS, network_seed=5, keep_outcomes=False,
            store_dir=str(store / f"record-{ppr}"),
        )
    else:
        session = BaselineSession(program, nprocs=NPROCS, network_seed=5)
    gc.collect()
    tracemalloc.start()
    try:
        result = session.run()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept, result.stats.total_messages


def measure(store: Path) -> dict[str, tuple[float, int, int]]:
    """mode -> (bytes kept per extra message, small and large messages)."""
    slopes = {}
    for mode in BUDGET:
        retained(mode, min(SIZES), store / "warm")  # imports, first-use caches
        (small, n_small), (large, n_large) = (
            retained(mode, ppr, store) for ppr in SIZES
        )
        slopes[mode] = ((large - small) / (n_large - n_small), n_small, n_large)
    return slopes


@pytest.fixture(scope="module")
def slopes(tmp_path_factory):
    return measure(tmp_path_factory.mktemp("retained"))


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc already runs")
@pytest.mark.parametrize("mode", sorted(BUDGET))
def test_retained_bytes_do_not_grow_with_the_run(slopes, mode):
    per_message, n_small, n_large = slopes[mode]
    assert n_large >= 4 * n_small  # the sizes the budget was set for
    assert per_message <= BUDGET[mode], (
        f"{mode}: {per_message:.0f} B kept per extra message "
        f"({n_small} -> {n_large} messages); budget {BUDGET[mode]} B, "
        f"{LOGGED[mode]} B while completed receives stayed in the log"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for mode, (per_message, n_small, n_large) in measure(Path(tmp)).items():
            print(
                f"{mode}: {per_message:.1f} B kept per extra message "
                f"({n_small} -> {n_large} messages)"
            )
