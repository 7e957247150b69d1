"""Critical-path & wait-state analysis: units, golden blame.

The wait-state decomposition is pinned on hand-built two-rank flow graphs
where every quantity is computable by eye (late-sender vs in-flight vs
local binding), with the recorder's endpoints staged and unstaged; the
analysis is proven read-only (archive bytes identical before/after), and
the 8-rank MCB blame attribution is pinned as a golden JSON file — top
rank, critical-path share, slack ordering and all.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.analysis.critical_path import (
    EXPLAIN_FORMAT,
    EXPLAIN_VERSION,
    analyze_critical_path,
    validate_explain_json,
    write_explain_json,
)
from repro.obs import (
    ColumnarFlowRecorder,
    TelemetryRegistry,
    merged_timeline,
    use_registry,
    validate_chrome_trace,
)
from repro.replay.session import RecordSession
from repro.workloads import make_workload

GOLDEN_EXPLAIN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_explain.json"
)

#: the pinned 8-rank MCB configuration (mirrors the golden timeline's
#: discipline: virtual clocks make the blame byte-reproducible).
GOLDEN_NPROCS = 8
GOLDEN_SEED = 1
GOLDEN_PARAMS = {"particles_per_rank": "20", "steps_per_particle": "6"}


class Ev:
    def __init__(self, rank, clock):
        self.rank = rank
        self.clock = clock


def both_recorders():
    """The flow recorder as sessions attach it, and one that moves every
    endpoint into its columns as it arrives (no staging)."""
    unstaged = ColumnarFlowRecorder("unit")
    unstaged.STAGE_ENTRIES = 5
    return [ColumnarFlowRecorder("unit"), unstaged]


def feed_late_sender(rec):
    """rank 1 is ready at 0.5, the message posts at 1.0, arrives at 3.0."""
    rec.on_send(1, 0, 0, 1, 0.5)  # rank 1's local predecessor
    rec.on_send(0, 1, 0, 5, 1.0)
    rec.on_delivery(1, "cs", "test", 3.0, [Ev(0, 5)])


def feed_early_sender(rec):
    """the message posts at 1.0, before rank 1 is ready at 2.0."""
    rec.on_send(0, 1, 0, 5, 1.0)
    rec.on_send(1, 0, 0, 1, 2.0)  # rank 1 busy until 2.0
    rec.on_delivery(1, "cs", "test", 3.0, [Ev(0, 5)])


class TestWaitDecomposition:
    @pytest.mark.parametrize("rec", both_recorders())
    def test_late_sender_split(self, rec):
        feed_late_sender(rec)
        r = analyze_critical_path(rec)
        # gap 0.5s..3.0s: 0.5s idle before the post, 2.0s in flight
        assert r.rank_late_sender_us[1] == pytest.approx(0.5e6)
        assert r.rank_in_flight_us[1] == pytest.approx(2.0e6)
        assert r.rank_slack_max_us[1] == pytest.approx(0.5e6)
        assert r.matched == 1 and r.receives == 1 and r.sends == 2

    @pytest.mark.parametrize("rec", both_recorders())
    def test_late_sender_binds_remote(self, rec):
        feed_late_sender(rec)
        r = analyze_critical_path(rec)
        # path walks recv@3.0 -> send@1.0 (remote edge, rank 0 -> rank 1)
        assert [e["kind"] for e in r.path] == ["in_flight"]
        assert r.path[0]["from_rank"] == 0
        assert r.path[0]["rank"] == 1
        assert r.path[0]["callsite"] == "cs"
        assert r.critical_path_share == pytest.approx(1.0)
        assert r.top_path_rank == 1

    @pytest.mark.parametrize("rec", both_recorders())
    def test_early_sender_binds_local(self, rec):
        feed_early_sender(rec)
        r = analyze_critical_path(rec)
        assert r.rank_late_sender_us[1] == pytest.approx(0.0)
        assert r.rank_in_flight_us[1] == pytest.approx(1.0e6)
        # binding predecessor is the local send@2.0, not the remote post
        assert [e["kind"] for e in r.path] == ["local"]
        assert r.rank_slack_max_us[1] == pytest.approx(1.0e6)

    @pytest.mark.parametrize("rec", both_recorders())
    def test_imbalance_measures_early_finishers(self, rec):
        feed_late_sender(rec)
        r = analyze_critical_path(rec)
        # global end 3.0; rank 0's last event is its send at 1.0
        assert r.rank_imbalance_us[0] == pytest.approx(2.0e6)
        assert r.rank_imbalance_us[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("rec", both_recorders())
    def test_unmatched_receive_contributes_no_wait(self, rec):
        rec.on_delivery(0, "cs", "test", 1.0, [Ev(5, 99)])
        r = analyze_critical_path(rec)
        assert r.matched == 0
        assert r.match_rate == 0.0
        assert float(r.rank_late_sender_us.sum()) == 0.0
        assert float(r.rank_in_flight_us.sum()) == 0.0

    def test_clock_skew_clips_at_zero(self):
        """Receiver's virtual clock may trail the sender's: no negative edges."""
        rec = ColumnarFlowRecorder("skew")
        rec.on_send(0, 1, 0, 5, 4.0)  # posted 'after' the delivery time
        rec.on_delivery(1, "cs", "test", 3.0, [Ev(0, 5)])
        r = analyze_critical_path(rec)
        assert float(r.rank_in_flight_us.sum()) >= 0.0
        assert all(e["t1_us"] >= e["t0_us"] for e in r.path)

    def test_empty_recorder(self):
        r = analyze_critical_path(ColumnarFlowRecorder("empty"))
        assert r.path == []
        assert r.critical_path_share == 0.0
        assert r.max_slack_us == 0.0
        assert validate_explain_json(r.to_json()) == []

    def test_first_send_wins_duplicate_identity(self):
        """A duplicated (clock, sender) key matches the first post (FIFO)."""
        rec = ColumnarFlowRecorder("dup")
        rec.on_send(1, 0, 0, 1, 1.0)  # rank 1's local predecessor
        rec.on_send(0, 1, 0, 5, 1.0)
        rec.on_send(0, 1, 0, 5, 9.0)  # corrupt duplicate, posted later
        rec.on_delivery(1, "cs", "test", 3.0, [Ev(0, 5)])
        r = analyze_critical_path(rec)
        # in-flight measured from the first post at 1.0, not 9.0 (which
        # would clip the whole gap away)
        assert r.rank_in_flight_us[1] == pytest.approx(2.0e6)


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for f in sorted(pathlib.Path(root).rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_archive(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("explain") / "arch")
    program, _ = make_workload("mcb", GOLDEN_NPROCS, **GOLDEN_PARAMS)
    RecordSession(
        program,
        nprocs=GOLDEN_NPROCS,
        network_seed=GOLDEN_SEED,
        store_dir=out,
        meta={
            "workload": "mcb",
            "nprocs": GOLDEN_NPROCS,
            "params": dict(GOLDEN_PARAMS),
        },
    ).run()
    return out


class TestArchiveRoute:
    def test_read_only_and_deterministic(self, golden_archive):
        before = _tree_digest(golden_archive)
        first = analyze_critical_path(golden_archive, network_seed=GOLDEN_SEED)
        second = analyze_critical_path(golden_archive, network_seed=GOLDEN_SEED)
        assert _tree_digest(golden_archive) == before
        assert first.to_json() == second.to_json()

    def test_json_schema_roundtrip(self, golden_archive, tmp_path):
        result = analyze_critical_path(golden_archive, network_seed=GOLDEN_SEED)
        path = str(tmp_path / "explain.json")
        obj = write_explain_json(result, path)
        assert obj["format"] == EXPLAIN_FORMAT
        assert obj["version"] == EXPLAIN_VERSION
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded == obj
        assert validate_explain_json(loaded) == []

    def test_validate_rejects_bad_shapes(self, golden_archive):
        result = analyze_critical_path(golden_archive, network_seed=GOLDEN_SEED)
        obj = result.to_json()
        assert validate_explain_json("nope")
        assert validate_explain_json({**obj, "format": "x"})
        assert validate_explain_json({**obj, "critical_path_share": 1.5})
        assert validate_explain_json({**obj, "matched": obj["receives"] + 1})
        assert validate_explain_json(
            {**obj, "ranks": [{"rank": 0}]}
        )

    def test_golden_blame_pinned(self, golden_archive):
        """The 8-rank MCB blame attribution is frozen as a golden file.

        Regenerate after an intentional change with::

            PYTHONPATH=src:tests python tests/analysis/make_golden_explain.py
        """
        result = analyze_critical_path(
            golden_archive, network_seed=GOLDEN_SEED, label="golden"
        )
        current = json.loads(json.dumps(result.to_json(), sort_keys=True))
        with open(GOLDEN_EXPLAIN_PATH, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        assert current["top_path_rank"] == golden["top_path_rank"]
        assert current["critical_path_share"] == pytest.approx(
            golden["critical_path_share"]
        )
        # slack ordering: ranks sorted by max slack must agree exactly
        order = lambda obj: [  # noqa: E731
            e["rank"]
            for e in sorted(
                obj["ranks"], key=lambda e: (-e["slack_max_us"], e["rank"])
            )
        ]
        assert order(current) == order(golden)
        assert current == golden

    def test_timeline_highlight_valid(self, golden_archive, tmp_path):
        from repro.analysis.divergence import rehydrate_run

        flow = ColumnarFlowRecorder("explain")
        rehydrate_run(golden_archive, network_seed=GOLDEN_SEED, flow=flow)
        result = analyze_critical_path(flow)
        trace = merged_timeline([flow], critical_path=result.timeline_slices())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["critical_path_edges"] == len(result.path)
        cp = [
            e
            for e in trace["traceEvents"]
            if e.get("cat") == "critical_path" and e["ph"] == "X"
        ]
        assert len(cp) == len(result.path)
        # the highlight lives in its own process group, above the runs
        assert {e["pid"] for e in cp} == {2}


class TestTelemetry:
    def test_gauges_published_when_enabled(self):
        rec = ColumnarFlowRecorder("gauged")
        feed_late_sender(rec)
        registry = TelemetryRegistry()
        with use_registry(registry):
            result = analyze_critical_path(rec)
        gauges = registry.gauges()
        assert gauges["explain.critical_path_share"] == pytest.approx(
            result.critical_path_share
        )
        assert gauges["explain.max_slack_us"] == pytest.approx(
            result.max_slack_us
        )


class TestBlameTables:
    def test_top_ranks_ordering_and_shares(self):
        rec = ColumnarFlowRecorder("order")
        feed_late_sender(rec)
        r = analyze_critical_path(rec)
        rows = r.top_ranks(10)
        assert rows[0]["rank"] == r.top_path_rank
        shares = [row["path_share"] for row in rows]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)

    def test_render_mentions_top_rank_and_callsite(self):
        rec = ColumnarFlowRecorder("render")
        feed_late_sender(rec)
        text = analyze_critical_path(rec).render(top=3)
        assert "blame by rank" in text
        assert "blame by callsite" in text
        assert "cs" in text

    def test_rank_rows_are_json_safe(self):
        rec = ColumnarFlowRecorder("safe")
        feed_late_sender(rec)
        obj = analyze_critical_path(rec).to_json()
        json.dumps(obj)  # no numpy scalars may leak
        for row in obj["ranks"]:
            assert isinstance(row["rank"], int)
            assert not isinstance(row["path_us"], np.floating)
