"""Differential golden: recording is bit-identical across MF-call-path rewrites.

Every case records one workload to a durable directory; what a record run
leaves behind — the archive files, the virtual times the recording cost
model produced, the event/MF-call/message counts, the queue model's stall
and occupancy figures and the data-replay byte total — is compared with
``golden_record.json``. The matrix crosses the four workloads of
``test_replay_golden`` with small and default chunks and with telemetry off
and on (telemetry must not move a byte or a virtual nanosecond). The
``baseline`` section pins the passthrough ``MFController`` run the same
way: it shares the engine and the MF-call path with record and replay but
has no recorder hook, so a change that only holds under recording shows.

Everything but the ``archive`` digests was generated at the commit *before*
the fused MF-call path; the archive digests moved with each archive layout
since version 3 ("each fact once", DESIGN.md §5.9; the latest, version 6,
names a frame's callsite by a 4-byte id), and with them blanked the file is
identical to its predecessor. Regenerate (only after an
intentional behaviour change) with::

    PYTHONPATH=src:. python tests/replay/test_record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from repro.replay import BaselineSession, RecordSession
from repro.replay.recorder import DEFAULT_CHUNK_EVENTS
from repro.workloads import make_workload
from tests.replay.test_replay_golden import RECORD_SEED, WORKLOADS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_record.json")

CHUNK_SIZES = (24, DEFAULT_CHUNK_EVENTS)

CASES = [
    (workload, chunk_events, telemetry)
    for workload in WORKLOADS
    for chunk_events in CHUNK_SIZES
    for telemetry in (False, True)
]


def case_id(workload: str, chunk_events: int, telemetry: bool) -> str:
    return f"{workload}-chunk{chunk_events}-{'telemetry' if telemetry else 'plain'}"


def dir_digest(directory: str) -> str:
    """SHA-256 over the durable archive's files in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def record_facts(workload: str, chunk_events: int, telemetry: bool) -> dict:
    nprocs, params = WORKLOADS[workload]
    program, _ = make_workload(workload, nprocs, **params)
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "archive")
        result = RecordSession(
            program,
            nprocs=nprocs,
            network_seed=RECORD_SEED,
            chunk_events=chunk_events,
            store_dir=store_dir,
            telemetry=telemetry,
        ).run()
        archive = dir_digest(store_dir)
    stats = result.stats
    controller = result.controller
    return {
        "archive": archive,
        # repr round-trips floats exactly; JSON numbers would too, but a
        # string diff of two reprs reads better in a failure
        "virtual_time": repr(stats.virtual_time),
        "per_rank_time": hashlib.sha256(
            repr(stats.per_rank_time).encode()
        ).hexdigest()[:16],
        "total_events": stats.total_events,
        "total_mf_calls": stats.total_mf_calls,
        "total_messages": stats.total_messages,
        "queue_stats": hashlib.sha256(
            repr(sorted(controller.queue_stats().items())).encode()
        ).hexdigest()[:16],
        "data_replay_bytes": controller.data_replay_bytes(),
    }


def baseline_facts(workload: str) -> dict:
    nprocs, params = WORKLOADS[workload]
    program, _ = make_workload(workload, nprocs, **params)
    result = BaselineSession(program, nprocs=nprocs, network_seed=RECORD_SEED).run()
    return {
        "virtual_time": repr(result.stats.virtual_time),
        "total_events": result.stats.total_events,
        "app_results": hashlib.sha256(
            repr(sorted(result.app_results.items())).encode()
        ).hexdigest()[:16],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "workload,chunk_events,telemetry", CASES, ids=[case_id(*c) for c in CASES]
)
def test_record_matches_golden(golden, workload, chunk_events, telemetry):
    assert record_facts(workload, chunk_events, telemetry) == golden["record"][
        case_id(workload, chunk_events, telemetry)
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_baseline_matches_golden(golden, workload):
    assert baseline_facts(workload) == golden["baseline"][workload]


def test_telemetry_moves_nothing(golden):
    for workload in WORKLOADS:
        for chunk_events in CHUNK_SIZES:
            assert (
                golden["record"][case_id(workload, chunk_events, False)]
                == golden["record"][case_id(workload, chunk_events, True)]
            )


if __name__ == "__main__":
    golden = {
        "record": {case_id(*c): record_facts(*c) for c in CASES},
        "baseline": {w: baseline_facts(w) for w in WORKLOADS},
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(CASES)} record cases, {len(WORKLOADS)} baselines")
