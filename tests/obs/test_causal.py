"""Causal cross-rank tracing: flow recorders and the merged timeline.

The simulator's virtual clock makes the merged timeline of a seeded
workload byte-deterministic, so a golden file pins the exact serialized
trace — phases, flow ids, sort order and all. The structural tests then
assert the ISSUE-level contract directly: every matched (wildcard)
receive in a recorded-then-replayed 8-rank workload gets at least one
flow arrow, and the result passes the Chrome-trace validator.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import (
    ColumnarFlowRecorder,
    FlowRecorder,
    FlowReceive,
    FlowSend,
    merged_timeline,
    validate_chrome_trace,
    write_timeline,
)
from repro.obs.registry import TelemetryRegistry, use_registry
from repro.replay.session import RecordSession, ReplaySession
from repro.workloads import make_workload

GOLDEN_TIMELINE_PATH = os.path.join(
    os.path.dirname(__file__), "golden_timeline.json"
)

NPROCS = 8


def golden_recorders() -> list[FlowRecorder]:
    """The fixed record+replay pair the golden file pins (8 ranks)."""
    program, _ = make_workload(
        "synthetic", NPROCS, seed="3", messages_per_rank="8", fanout="2"
    )
    rec_flow = FlowRecorder("record")
    record = RecordSession(
        program, nprocs=NPROCS, network_seed=1, flow=rec_flow
    ).run()
    rep_flow = FlowRecorder("replay")
    ReplaySession(
        program, record.archive, network_seed=2, flow=rep_flow
    ).run()
    return [rec_flow, rep_flow]


@pytest.fixture(scope="module")
def recorders() -> list[FlowRecorder]:
    return golden_recorders()


@pytest.fixture(scope="module")
def timeline(recorders):
    return merged_timeline(recorders)


class TestFlowRecorder:
    def test_send_and_receive_keys_agree(self):
        send = FlowSend(src=2, dst=5, tag=0, clock=17, t=1.5)
        recv = FlowReceive(
            rank=5, callsite="cs", kind="testsome", sender=2, clock=17, t=2.0
        )
        assert send.key == recv.key == (17, 2)

    def test_on_delivery_duck_types_events(self):
        class Ev:
            rank = 3
            clock = 9

        rec = FlowRecorder()
        rec.on_delivery(1, "cs", "testsome", 0.5, [Ev(), Ev()])
        assert len(rec.receives) == 2
        assert rec.receives[0].sender == 3
        assert rec.receives[0].clock == 9

    def test_match_stats_counts_correlated_pairs(self):
        rec = FlowRecorder("unit")
        rec.on_send(0, 1, 0, 5, 0.1)
        rec.on_send(0, 1, 0, 6, 0.2)

        class Ev:
            rank, clock = 0, 5

        rec.on_delivery(1, "cs", "testsome", 0.3, [Ev()])
        stats = rec.match_stats()
        assert (stats.sends, stats.receives, stats.matched) == (2, 1, 1)
        assert stats.match_rate == 1.0
        assert "unit" in stats.describe()

    def test_sessions_capture_both_endpoints(self, recorders):
        for rec in recorders:
            stats = rec.match_stats()
            assert stats.sends > 0
            assert stats.receives > 0
            # every matched receive traces back to a captured send
            assert stats.matched == stats.receives

    def test_record_and_replay_observe_the_same_flow_set(self, recorders):
        record, replay = recorders
        assert set(record.send_index()) == set(replay.send_index())
        assert {r.key for r in record.receives} == {r.key for r in replay.receives}


class TestDuplicateSends:
    """Colliding (clock, sender) identities are counted, never silently kept."""

    def test_first_send_wins_the_index(self):
        rec = FlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 2, 0, 5, 9.0)  # same (clock=5, src=0) identity
        assert rec.duplicate_sends == 1
        assert len(rec.sends) == 2  # raw capture keeps both
        winner = rec.send_index()[(5, 0)]
        assert (winner.dst, winner.t) == (1, 1.0)

    def test_duplicate_counter_fires_with_registry(self):
        with use_registry(TelemetryRegistry()) as registry:
            rec = FlowRecorder("dup")
            rec.on_send(0, 1, 0, 5, 1.0)
            rec.on_send(0, 1, 0, 5, 2.0)
            rec.on_send(0, 1, 0, 6, 3.0)
            assert registry.counters().get("flow.duplicate_send") == 1
        assert rec.duplicate_sends == 1

    def test_no_counter_traffic_when_registry_disabled(self):
        rec = FlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 1, 0, 5, 2.0)
        assert rec.duplicate_sends == 1  # local count still works

    def test_columnar_recorder_counts_duplicates(self):
        rec = ColumnarFlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 1, 0, 5, 2.0)
        rec.on_send(1, 0, 0, 5, 3.0)  # different sender: not a duplicate
        assert rec.duplicate_send_count() == 1

    def test_healthy_run_has_zero_duplicates(self, recorders):
        for rec in recorders:
            assert rec.duplicate_sends == 0


class TestColumnarParity:
    """ColumnarFlowRecorder is a drop-in for FlowRecorder on the hooks."""

    def columnar_recorders(self) -> list[ColumnarFlowRecorder]:
        program, _ = make_workload(
            "synthetic", NPROCS, seed="3", messages_per_rank="8", fanout="2"
        )
        rec_flow = ColumnarFlowRecorder("record")
        record = RecordSession(
            program, nprocs=NPROCS, network_seed=1, flow=rec_flow
        ).run()
        rep_flow = ColumnarFlowRecorder("replay")
        ReplaySession(
            program, record.archive, network_seed=2, flow=rep_flow
        ).run()
        return [rec_flow, rep_flow]

    def test_match_stats_agree_with_object_recorder(self, recorders):
        for obj, col in zip(recorders, self.columnar_recorders()):
            assert obj.match_stats() == col.match_stats()

    def test_merged_timeline_accepts_columnar(self, recorders, timeline):
        columnar_trace = merged_timeline(self.columnar_recorders())
        assert validate_chrome_trace(columnar_trace) == []
        assert columnar_trace == timeline

    def test_staging_block_size_does_not_show(self):
        """Endpoints reach the columns a block at a time or when a column
        is read; neither the block size nor a mid-capture read may show."""

        class Ev:
            def __init__(self, rank, clock):
                self.rank, self.clock = rank, clock

        tiny, default = ColumnarFlowRecorder("a"), ColumnarFlowRecorder("a")
        tiny.STAGE_ENTRIES = 15  # three endpoints
        for rec in (tiny, default):
            for i in range(10):
                rec.on_send(i % 3, (i + 1) % 3, 7 + i, 10 + i, i * 0.5)
                rec.on_delivery(i % 3, f"cs{i % 2}", "test", i * 0.25, [Ev(i % 2, i), Ev(2, -i)])
                if i == 4:
                    assert (rec.num_sends, rec.num_receives) == (5, 10)
        columns = [
            f"{side}_{name}"
            for side, names in (
                ("send", ("src", "dst", "tag", "clock", "t")),
                ("recv", ("rank", "callsite", "sender", "clock", "t")),
            )
            for name in names
        ]
        for name in columns:
            assert (
                getattr(tiny, name).values.tolist()
                == getattr(default, name).values.tolist()
            ), name
        assert default.send_tag.values.tolist() == [7 + i for i in range(10)]
        assert default.send_t.values.tolist() == [i * 0.5 for i in range(10)]
        assert default.recv_callsite.values.tolist() == [i % 2 for i in range(10) for _ in (0, 1)]
        assert default.recv_clock.values.tolist() == [c for i in range(10) for c in (i, -i)]
        assert default.recv_t.values.dtype == float and default.send_src.values.dtype == "int64"

    def test_send_keys_match_object_index(self, recorders):
        for obj, col in zip(recorders, self.columnar_recorders()):
            keys, k = col.send_keys()
            decomposed = {(int(key // k), int(key % k)) for key in keys}
            assert decomposed == set(obj.send_index())


class TestCriticalPathTrack:
    """The optional critical-path highlight rides as its own process group."""

    def path_segments(self):
        return [
            {"rank": 0, "t0_us": 0.0, "t1_us": 5.0, "kind": "local"},
            {
                "rank": 1,
                "t0_us": 5.0,
                "t1_us": 9.0,
                "kind": "in_flight",
                "from_rank": 0,
                "callsite": "step",
            },
        ]

    def test_track_is_a_distinct_process(self, recorders):
        trace = merged_timeline(recorders, critical_path=self.path_segments())
        assert validate_chrome_trace(trace) == []
        cp_pid = len(recorders) + 1
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "process_name"
        }
        assert names[cp_pid] == "critical path"
        slices = [
            ev
            for ev in trace["traceEvents"]
            if ev.get("ph") == "X" and ev.get("cat") == "critical_path"
        ]
        assert len(slices) == 2
        assert all(ev["pid"] == cp_pid for ev in slices)
        remote = next(s for s in slices if s["args"]["kind"] == "in_flight")
        assert remote["args"]["from_rank"] == 0
        assert remote["args"]["callsite"] == "step"
        assert trace["otherData"]["critical_path_edges"] == 2

    def test_no_track_without_path(self, recorders, timeline):
        assert "critical_path_edges" not in timeline["otherData"]
        assert not any(
            ev.get("cat") == "critical_path" for ev in timeline["traceEvents"]
        )

    def test_backward_edge_is_clipped_to_zero_duration(self):
        rec = FlowRecorder("clip")
        rec.on_send(0, 1, 0, 1, 1.0)
        trace = merged_timeline(
            [rec],
            critical_path=[
                {"rank": 0, "t0_us": 7.0, "t1_us": 3.0, "kind": "in_flight"}
            ],
        )
        assert validate_chrome_trace(trace) == []
        cp = [ev for ev in trace["traceEvents"] if ev.get("cat") == "critical_path"]
        assert cp[0]["dur"] == 0.0


class TestMergedTimeline:
    def test_validator_clean(self, timeline):
        assert validate_chrome_trace(timeline) == []

    def test_every_matched_receive_has_a_flow_arrow(self, recorders, timeline):
        finishes = [
            ev for ev in timeline["traceEvents"] if ev.get("ph") == "f"
        ]
        total_receives = sum(len(rec.receives) for rec in recorders)
        assert total_receives > 0
        assert len(finishes) == total_receives
        for ev in finishes:
            assert ev["bp"] == "e"

    def test_every_flow_has_start_and_finish(self, timeline):
        starts = {}
        finishes = {}
        for ev in timeline["traceEvents"]:
            if ev.get("ph") == "s":
                assert ev["id"] not in starts, "duplicate flow start id"
                starts[ev["id"]] = ev
            elif ev.get("ph") == "f":
                finishes.setdefault(ev["id"], []).append(ev)
        assert set(starts) == set(finishes)
        assert len(starts) == timeline["otherData"]["flows"]
        for fid, start in starts.items():
            for finish in finishes[fid]:
                assert start["pid"] == finish["pid"]  # arrows never cross runs
        # per-rank virtual clocks are not globally synchronized, so a
        # receiver's local delivery time may precede the sender's local
        # post time — arrows can legitimately point "backwards".

    def test_runs_are_named_process_groups(self, recorders, timeline):
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in timeline["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "process_name"
        }
        assert names == {1: "record", 2: "replay"}
        thread_names = {
            (ev["pid"], ev["tid"]): ev["args"]["name"]
            for ev in timeline["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "thread_name"
        }
        for pid in (1, 2):
            for rank in range(NPROCS):
                assert thread_names[(pid, rank)] == f"rank {rank}"

    def test_timestamps_are_virtual_microseconds(self, recorders, timeline):
        slices = [ev for ev in timeline["traceEvents"] if ev.get("ph") == "X"]
        assert slices
        max_virtual_us = max(
            max((s.t for s in rec.sends), default=0.0)
            for rec in recorders
        ) * 1e6
        assert all(0 <= ev["ts"] <= max_virtual_us * 2 for ev in slices)

    def test_unmatched_send_gets_no_flow_start(self):
        rec = FlowRecorder("lonely")
        rec.on_send(0, 1, 0, 5, 0.1)
        trace = merged_timeline([rec])
        phases = [ev["ph"] for ev in trace["traceEvents"]]
        assert "s" not in phases and "f" not in phases
        assert trace["otherData"]["flows"] == 0

    def test_empty_recorder_produces_valid_trace(self):
        trace = merged_timeline([FlowRecorder("empty")])
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["flows"] == 0


class TestGoldenTimeline:
    def test_golden_file_pinned(self, recorders, tmp_path):
        path = tmp_path / "timeline.json"
        write_timeline(recorders, str(path))
        produced = path.read_text(encoding="utf-8")
        golden = open(GOLDEN_TIMELINE_PATH, encoding="utf-8").read()
        assert produced == golden, (
            "merged timeline drifted from tests/obs/golden_timeline.json; "
            "if the change is intentional, regenerate with "
            "`PYTHONPATH=src:tests python tests/obs/make_golden_timeline.py`"
        )

    def test_golden_file_is_loadable_and_valid(self):
        with open(GOLDEN_TIMELINE_PATH, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["runs"] == ["record", "replay"]
        assert trace["otherData"]["flows"] > 0
