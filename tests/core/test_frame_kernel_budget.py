"""Deterministic budget for the frame path: kernel calls per frame.

A durable record writes one frame per flushed chunk and a load reads each
back. An assist frame (DESIGN.md §5.10) is one bit pass and one varint pass
in each direction: its planes — a sender plane of permutation rounds as
much as a packed index — go through ``kernels.packbits`` /
``kernels.unpackbits`` exactly once, and its varint run — the few values
left once the per-event columns are planes — through the LEB128 kernel at
most once: a run under ``varint.KERNEL_MIN_VALUES`` values takes the scalar
steps instead (a kernel call costs what some hundred of them do), and with
the threshold at zero every frame makes exactly one kernel call. The
per-column code made twelve. Call counts repeat exactly on any machine, so
this gates the per-frame cost where a wall-clock check on a shared runner
could not (the style of ``tests/sim/test_hot_path_budget.py``).
"""

from __future__ import annotations

import pytest

from repro.core import kernels, varint
from repro.replay import RecordSession
from repro.replay.durable_store import load_archive
from repro.workloads import make_workload
from tests.core.oracles import permutation_rounds

NPROCS = 8
#: kernel calls per frame in each direction with one length-prefixed array
#: per column, for the failure message
PER_COLUMN_CALLS = 12


def rounds(chunk) -> bool:
    """Is the chunk's sender column rounds of permutations?"""
    ranks = sorted(set(chunk.sender_sequence))
    return bool(permutation_rounds([ranks.index(s) for s in chunk.sender_sequence], len(ranks)))


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name``; returns the list its calls are appended to."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


#: many small MCB frames, and an unstructured record whose every frame holds
#: its sender plane as permutation rounds (Lehmer words, record flag 32)
WORKLOADS = {
    "mcb": {"particles_per_rank": 40},
    "unstructured": {"vertices": 64, "iterations": 3},
}


@pytest.mark.parametrize("telemetry", [False, True])
def test_one_kernel_call_per_frame_in_each_direction(tmp_path, telemetry, workload="mcb"):
    for always_kernel in (False, True):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if always_kernel:
                monkeypatch.setattr(varint, "KERNEL_MIN_VALUES", 0)
            store = str(tmp_path / f"rec-{always_kernel}")
            check_frame_budget(monkeypatch, store, telemetry, always_kernel, workload)


@pytest.mark.parametrize("telemetry", [False, True])
def test_permutation_rounds_take_no_extra_bit_pass(tmp_path, telemetry):
    test_one_kernel_call_per_frame_in_each_direction(tmp_path, telemetry, "unstructured")


def check_frame_budget(monkeypatch, store, telemetry, always_kernel, workload):
    encodes = count_calls(monkeypatch, kernels, "_encode_u64")
    decodes = count_calls(monkeypatch, kernels, "uvarint_decode_batch")
    packs = count_calls(monkeypatch, kernels, "packbits")
    unpacks = count_calls(monkeypatch, kernels, "unpackbits")
    program, _ = make_workload(workload, NPROCS, seed=3, **WORKLOADS[workload])
    recorded = RecordSession(
        program,
        nprocs=NPROCS,
        network_seed=5,
        chunk_events=32,
        store_dir=store,
        store_fsync=False,
        telemetry=telemetry,
    ).run()
    frames = sum(len(recorded.archive.chunks(r)) for r in range(NPROCS))
    if workload == "mcb":
        assert frames > 4 * NPROCS  # many small frames: the case being gated
    else:
        assert frames == NPROCS and all(rounds(c) for _, c in recorded.archive.iter_all())
    # with telemetry on too: the rollup reads the sizes of the frames the
    # store wrote, it does not serialize each rank's record again
    assert len(packs) == frames, f"{len(packs) / frames:.1f} bit passes per frame written"
    assert len(encodes) == (frames if always_kernel else 0), (
        f"{len(encodes) / frames:.1f} encode kernel calls per frame "
        f"(one run: at most 1, one array per column: {PER_COLUMN_CALLS})"
    )
    assert not decodes and not unpacks

    archive, report = load_archive(store, mode="strict")
    assert report.clean and archive.chunks_by_rank == recorded.archive.chunks_by_rank
    assert len(unpacks) == frames, f"{len(unpacks) / frames:.1f} bit passes per frame read"
    assert len(decodes) == (frames if always_kernel else 0), (
        f"{len(decodes) / frames:.1f} decode kernel calls per frame "
        f"(one run: at most 1, one array per column: {PER_COLUMN_CALLS})"
    )
    assert len(packs) == frames and len(encodes) == (frames if always_kernel else 0)
