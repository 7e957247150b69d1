"""No session starts a thread: telemetry, the metrics stream, the ledger,
causal flow capture and a two-record diff all run on the caller's thread
(the engine's block tick writes the stream)."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.divergence import rehydrate_pair
from repro.obs import ColumnarFlowRecorder, MonitorState
from repro.replay import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 4


def refuse_threads(self):
    raise AssertionError(f"a session started thread {self.name!r}")


def record(tmp_path, name, network_seed, **kwargs):
    params = {"particles_per_rank": 10}
    program, _ = make_workload("mcb", NPROCS, **params)
    meta = {"workload": "mcb", "nprocs": NPROCS, "params": params,
            "network_seed": network_seed}
    return RecordSession(
        program, NPROCS, network_seed=network_seed, meta=meta,
        store_dir=str(tmp_path / name), store_fsync=False, **kwargs,
    ).run()  # fmt: skip


def test_sessions_and_a_diff_start_no_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", refuse_threads)
    with pytest.raises(AssertionError):
        threading.Thread(target=lambda: None).start()  # the patch holds

    rec = record(
        tmp_path, "a", 1,
        metrics_stream=str(tmp_path / "record.jsonl"),
        ledger=str(tmp_path / "ledger.jsonl"),
        telemetry=True,
        flow=ColumnarFlowRecorder("record"),
    )  # fmt: skip
    assert rec.registry.enabled and rec.ledger_entry is not None
    assert len(rec.flow.send_src) > 0

    program, _ = make_workload("mcb", NPROCS, particles_per_rank=10)
    ReplaySession(
        program, rec.archive, network_seed=9,
        metrics_stream=str(tmp_path / "replay.jsonl"),
    ).run()  # fmt: skip
    for name in ("record.jsonl", "replay.jsonl"):
        state = MonitorState()
        state.feed_lines((tmp_path / name).read_text().splitlines())
        assert state.ended and not state.problems

    other = record(tmp_path, "b", 2)
    assert other.archive.chunks_by_rank != rec.archive.chunks_by_rank
    a, b = rehydrate_pair(str(tmp_path / "a"), str(tmp_path / "b"))
    assert a.nprocs == b.nprocs == NPROCS


def test_metrics_interval_is_gone(tmp_path):
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=10)
    with pytest.raises(TypeError):
        RecordSession(
            program, NPROCS, metrics_stream=str(tmp_path / "m.jsonl"),
            metrics_interval=0.01,
        )  # fmt: skip
