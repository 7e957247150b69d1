"""Deterministic budget for the frame path: varint kernel calls per frame.

A durable record writes one frame per flushed chunk and a load reads each
back. With a frame's payload treated as one varint stream (DESIGN.md §6.5)
each direction makes exactly one call into the LEB128 kernel per frame —
the per-column code made twelve — and the read path inverts the linear
predictor on Python ints without reaching ``lp_decode_auto``. Call counts
repeat exactly on any machine, so this gates the per-frame cost where a
wall-clock check on a shared runner could not (the style of
``tests/sim/test_hot_path_budget.py``).
"""

from __future__ import annotations

import pytest

from repro.core import kernels, lp_encoding
from repro.replay import RecordSession
from repro.replay.durable_store import load_archive
from repro.workloads import make_workload

NPROCS = 8
#: kernel calls per frame in each direction with one length-prefixed array
#: per column, for the failure message
PER_COLUMN_CALLS = 12


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name``; returns the list its calls are appended to."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("telemetry", [False, True])
def test_one_kernel_call_per_frame_in_each_direction(tmp_path, monkeypatch, telemetry):
    encodes = count_calls(monkeypatch, kernels, "_encode_u64")
    decodes = count_calls(monkeypatch, kernels, "uvarint_decode_batch")
    lp_autos = count_calls(monkeypatch, lp_encoding, "lp_decode_auto")
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=40, seed=3)
    store = str(tmp_path / "rec")
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
    assert frames > 4 * NPROCS  # many small frames: the case being gated
    # with telemetry on too: the rollup reads the sizes of the frames the
    # store wrote, it does not serialize each rank's record again
    assert len(encodes) == frames, (
        f"{len(encodes) / frames:.1f} encode kernel calls per frame "
        f"(one stream: 1, one array per column: {PER_COLUMN_CALLS})"
    )
    assert not decodes

    archive, report = load_archive(store, mode="strict")
    assert report.clean and archive.chunks_by_rank == recorded.archive.chunks_by_rank
    assert len(decodes) == frames, (
        f"{len(decodes) / frames:.1f} decode kernel calls per frame "
        f"(one stream: 1, one array per column: {PER_COLUMN_CALLS})"
    )
    assert len(encodes) == frames
    assert not lp_autos, "load_archive reached lp_decode_auto"
