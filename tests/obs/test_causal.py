"""Causal cross-rank tracing: the flow recorder and the merged timeline.

The simulator's virtual clock makes the merged timeline of a seeded
workload byte-deterministic, so a golden file pins the exact serialized
trace — phases, flow ids, sort order and all. The structural tests then
assert the contract directly: every matched (wildcard) receive in a
recorded-then-replayed 8-rank workload gets at least one flow arrow, and
the result passes the Chrome-trace validator.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.analysis.columns import RehydratedRun
from repro.obs import (
    ColumnarFlowRecorder,
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


class Ev:
    def __init__(self, rank, clock):
        self.rank, self.clock = rank, clock


def golden_recorders() -> list[ColumnarFlowRecorder]:
    """The fixed record+replay pair the golden file pins (8 ranks)."""
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


def identities(rec: ColumnarFlowRecorder) -> tuple[set, set]:
    """The ``(clock, sender)`` identities of a run's sends and receives."""
    sends = zip(rec.send_clock.values.tolist(), rec.send_src.values.tolist())
    receives = zip(rec.recv_clock.values.tolist(), rec.recv_sender.values.tolist())
    return set(sends), set(receives)


@pytest.fixture(scope="module")
def recorders() -> list[ColumnarFlowRecorder]:
    return golden_recorders()


@pytest.fixture(scope="module")
def timeline(recorders):
    return merged_timeline(recorders)


class TestFlowRecorder:
    def test_send_and_receive_keys_agree(self):
        rec = ColumnarFlowRecorder()
        rec.on_send(2, 5, 0, 17, 1.5)
        rec.on_delivery(5, "cs", "testsome", 2.0, [Ev(2, 17)])
        keys, k = rec.send_keys()
        assert divmod(int(keys[0]), int(k)) == (17, 2)
        assert keys.tolist() == (rec.recv_clock.values * k + rec.recv_sender.values).tolist()

    def test_on_delivery_duck_types_events(self):
        rec = ColumnarFlowRecorder()
        rec.on_delivery(1, "cs", "testsome", 0.5, [Ev(3, 9), Ev(3, 9)])
        assert rec.num_receives == 2
        assert rec.recv_sender.values.tolist() == [3, 3]
        assert rec.recv_clock.values.tolist() == [9, 9]
        assert (rec.callsites, rec.kinds) == (["cs"], ["testsome"])

    def test_match_stats_counts_correlated_pairs(self):
        rec = ColumnarFlowRecorder("unit")
        rec.on_send(0, 1, 0, 5, 0.1)
        rec.on_send(0, 1, 0, 6, 0.2)
        rec.on_delivery(1, "cs", "testsome", 0.3, [Ev(0, 5)])
        stats = rec.match_stats()
        assert (stats.sends, stats.receives, stats.matched) == (2, 1, 1)
        assert stats.match_rate == 1.0 and stats.duplicate_sends == 0
        assert "unit" in stats.describe() and "duplicate" not in stats.describe()

    def test_sessions_capture_both_endpoints(self, recorders):
        for rec in recorders:
            stats = rec.match_stats()
            assert stats.sends > 0
            assert stats.receives > 0
            # every matched receive traces back to a captured send
            assert stats.matched == stats.receives

    def test_record_and_replay_observe_the_same_flow_set(self, recorders):
        record, replay = recorders
        assert identities(record) == identities(replay)

    def test_staging_block_size_does_not_show(self):
        """Endpoints reach the columns a block at a time or when a column
        is read; neither the block size nor a mid-capture read may show."""
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


class TestDuplicateSends:
    """Colliding (clock, sender) identities are counted, never silently kept."""

    def test_first_send_wins_the_index(self):
        rec = ColumnarFlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 2, 0, 5, 9.0)  # same (clock=5, src=0) identity
        rec.on_delivery(1, "cs", "test", 3.0, [Ev(0, 5)])
        assert rec.num_sends == 2  # raw capture keeps both
        flows = [ev for ev in merged_timeline([rec])["traceEvents"] if ev["ph"] in "sf"]
        # the id is taken at the first post (1.0 s); the later post joins it
        assert [(ev["ph"], ev["ts"], ev["id"]) for ev in flows] == [
            ("s", 1e6, 1), ("f", 3e6, 1), ("s", 9e6, 1),
        ]  # fmt: skip

    def test_match_stats_reports_duplicate_sends(self):
        rec = ColumnarFlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 1, 0, 5, 2.0)
        rec.on_send(0, 1, 0, 6, 3.0)
        stats = rec.match_stats()
        assert stats.duplicate_sends == 1
        assert stats.describe().endswith(", 1 duplicate send identities")

    def test_no_counter_traffic_when_registry_disabled(self):
        """The count is the recorder's own: it needs no registry, and an
        enabled one sees no counter either."""
        rec = ColumnarFlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 1, 0, 5, 2.0)
        assert rec.match_stats().duplicate_sends == 1  # local count still works
        with use_registry(TelemetryRegistry()) as registry:
            rec.on_send(0, 1, 0, 5, 3.0)
            assert rec.match_stats().duplicate_sends == 2
        assert registry.counters() == {}

    def test_columnar_recorder_counts_duplicates(self):
        rec = ColumnarFlowRecorder("dup")
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 1, 0, 5, 2.0)
        rec.on_send(1, 0, 0, 5, 3.0)  # different sender: not a duplicate
        assert rec.duplicate_send_count() == 1

    def test_healthy_run_has_zero_duplicates(self, recorders):
        for rec in recorders:
            assert rec.match_stats().duplicate_sends == 0


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
        rec = ColumnarFlowRecorder("clip")
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
        total_receives = sum(rec.num_receives for rec in recorders)
        assert total_receives > 0
        assert len(finishes) == total_receives
        for ev in finishes:
            assert ev["bp"] == "e"
        # one arrow per distinct (clock, sender) a run received
        assert timeline["otherData"]["flows"] == sum(
            len(identities(rec)[1]) for rec in recorders
        )

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
        max_virtual_us = max(rec.send_t.values.max() for rec in recorders) * 1e6
        assert all(0 <= ev["ts"] <= max_virtual_us * 2 for ev in slices)

    def test_unmatched_send_gets_no_flow_start(self):
        rec = ColumnarFlowRecorder("lonely")
        rec.on_send(0, 1, 0, 5, 0.1)
        trace = merged_timeline([rec])
        phases = [ev["ph"] for ev in trace["traceEvents"]]
        assert "s" not in phases and "f" not in phases
        assert trace["otherData"]["flows"] == 0

    def test_empty_recorder_produces_valid_trace(self):
        trace = merged_timeline([ColumnarFlowRecorder("empty")])
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["flows"] == 0

    def test_edge_cases_render_the_pinned_bytes(self):
        """A duplicate identity, an unmatched send and receive, an empty
        run: the bytes the object recorder rendered for the same inputs,
        from the recorders and from their :class:`RehydratedRun` views."""
        dup = ColumnarFlowRecorder("dup")
        dup.on_send(1, 0, 0, 3, 0.5)
        dup.on_send(0, 1, 0, 5, 1.0)
        dup.on_send(0, 2, 4, 5, 9.0)  # same (clock 5, sender 0) identity, posted later
        dup.on_delivery(1, "cs", "testsome", 3.0, [Ev(0, 5)])
        dup.on_delivery(2, "cs", "testsome", 9.5, [Ev(0, 5)])
        dup.on_delivery(0, "other", "waitany", 2.0, [Ev(1, 3), Ev(2, 99)])
        lonely = ColumnarFlowRecorder("lonely")
        lonely.on_send(0, 1, 0, 5, 0.1)
        runs = [dup, lonely, ColumnarFlowRecorder("empty")]
        for source in (runs, [RehydratedRun.from_flow(rec) for rec in runs]):
            text = json.dumps(merged_timeline(source), indent=1, sort_keys=True) + "\n"
            assert validate_chrome_trace(json.loads(text)) == []
            assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
                3559, "a6affe8ff60a7fe61075be7d3b4eaadc83ccfb62589c1473caf6935d56e439b4",
            )  # fmt: skip


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
