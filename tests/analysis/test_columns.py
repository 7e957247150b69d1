"""Analysis on columns (analysis/columns.py, analysis/divergence.py).

Three things: the array compare against the object compare it replaced
(``tests/analysis/oracles.py``), the replay-once rule of
``rehydrate_pair`` (counting ``ReplaySession.run`` calls: the ``replays``
fixture of ``conftest.py``), and the
timeline drawn from the columns.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import RehydratedRun, analyze_critical_path, diff_runs, rehydrate
from repro.analysis.divergence import (
    _count_inversions,
    compare_columns,
    divergence_timeline,
    rehydrate_pair,
    rehydrate_run,
    run_outcomes,
)
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.obs import ColumnarFlowRecorder
from repro.replay.durable_store import RecordArchive, open_run
from repro.replay.session import RecordSession
from repro.workloads import make_workload
from tests.analysis.oracles import (
    _count_inversions as count_inversions_oracle,
    diff_runs_oracle,
    divergence_timeline_oracle,
)

#: the four shapes of ``bench/workloads.py`` at its smoke size.
SHAPES = {
    "mcb32": ("mcb", 16, {"particles_per_rank": 10}),
    "jacobi64": ("jacobi", 16, {"iterations": 10}),
    "unstructured64": ("unstructured", 16, {"vertices": 64, "iterations": 2}),
    "codec4": ("mcb", 4, {"particles_per_rank": 60}),
}


def record(app, nprocs, params, network_seed, store_dir=None, **kw):
    program, _ = make_workload(app, nprocs, **params)
    meta = {"workload": app, "nprocs": nprocs, "params": params, "network_seed": network_seed}
    return RecordSession(
        program, nprocs, network_seed=network_seed, store_dir=store_dir, meta=meta,
        store_fsync=False, **kw,
    ).run()  # fmt: skip


# -- (a) the array compare against the object compare ---------------------------


class TestDifferentialOnBenchShapes:
    @pytest.mark.parametrize("seed", [7, 31])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_report_equals_the_oracles(self, shape, seed, tmp_path):
        app, nprocs, params = SHAPES[shape]
        params = dict(params, seed=seed)
        dirs = [str(tmp_path / name) for name in "ab"]
        runs = [
            record(app, nprocs, params, seed + 1 + 2 * i, dirs[i], keep_outcomes=True)
            for i in range(2)
        ]
        expect = diff_runs_oracle(*runs).to_json()
        assert expect["events_a"] > 0
        assert expect["identical"] == (shape == "jacobi64")
        assert diff_runs(*dirs).to_json() == expect  # records, rehydrated
        assert diff_runs(*runs).to_json() == expect  # outcome streams in memory
        # a different window and pool, and B as the reference run
        kw = {"context": 2, "pool_window": 7, "label_a": "x", "label_b": "y"}
        assert (
            diff_runs(dirs[1], runs[0], **kw).to_json()
            == diff_runs_oracle(runs[1], runs[0], **kw).to_json()
        )


def outcome(callsite, *events):
    return MFOutcome(callsite, MFKind.TESTSOME, tuple(ReceiveEvent(s, c) for s, c in events))


@st.composite
def stream_pairs(draw):
    """Two runs of up to four ranks whose streams share a prefix and then
    differ in the ways a diff has to tell apart."""
    event = st.tuples(st.integers(0, 4), st.integers(0, 12))
    site = st.sampled_from(["cs:a", "cs:b", "cs:c"])
    outcomes = st.lists(st.tuples(site, st.lists(event, max_size=4)), max_size=9)
    a, b = {}, {}
    for rank in draw(st.lists(st.integers(0, 5), unique=True, max_size=4)):
        base = draw(outcomes)
        other = list(base)
        how = draw(st.sampled_from(["same", "prefix", "callsite", "shuffle", "fresh", "gone"]))
        if how == "prefix":
            other = other[: draw(st.integers(0, len(other)))]
        elif how == "callsite" and other:
            i = draw(st.integers(0, len(other) - 1))
            other[i] = (draw(site), other[i][1])
        elif how == "shuffle":
            other = draw(st.permutations(other))
        elif how == "fresh":
            other = draw(outcomes)
        sides = [base, other] if draw(st.booleans()) else [other, base]
        for run, stream in zip((a, b), sides):
            if how != "gone" or run is a:
                run[rank] = [outcome(cs, *events) for cs, events in stream]
    return a, b


class TestDifferentialOnDrawnStreams:
    @settings(max_examples=150, deadline=None)
    @given(stream_pairs(), st.integers(0, 3), st.integers(0, 6))
    def test_report_equals_the_oracles(self, pair, context, pool_window):
        a, b = pair
        kw = {"context": context, "pool_window": pool_window}
        assert diff_runs(a, b, **kw).to_json() == diff_runs_oracle(a, b, **kw).to_json()
        assert diff_runs(b, a, **kw).to_json() == diff_runs_oracle(b, a, **kw).to_json()

    @pytest.mark.parametrize(
        "a, b",
        [
            pytest.param(
                {0: [outcome("cs", (1, 0)), outcome("cs", (1, 1), (2, 4)), outcome("cs", (1, 2))]},
                {0: [outcome("cs", (1, 0)), outcome("cs", (1, 1))]},
                id="strict-prefix",
            ),
            pytest.param(
                {0: [outcome("cs", (1, 0))], 1: []},
                {0: [outcome("cs", (1, 0))], 1: [outcome("cs", (0, 3))]},
                id="empty-rank",
            ),
            pytest.param(
                {0: [outcome("cs:x", (1, 0)), outcome("cs:x", (1, 1))]},
                {0: [outcome("cs:x", (1, 0)), outcome("cs:y", (1, 1))]},
                id="callsite-only",
            ),
            pytest.param(
                {0: [outcome("cs", (1, 0))], 3: [outcome("cs", (0, 2), (0, 5))]},
                {0: [outcome("cs", (1, 0))]},
                id="rank-on-one-side",
            ),
            pytest.param({}, {}, id="nothing"),
            pytest.param(
                {2: [outcome("cs", (1, 3), (0, 1), (1, 5), (0, 2), (0, 9))]},
                {2: [outcome("cs", (0, 1), (0, 2), (1, 4), (0, 8), (1, 6), (1, 7))]},
                id="reordered-with-clock-drift",
            ),
        ],
    )
    def test_named_shapes(self, a, b):
        expect = diff_runs_oracle(a, b).to_json()
        assert diff_runs(a, b).to_json() == expect
        assert not expect["identical"] or not a

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-5, 40), max_size=70))
    def test_inversion_count(self, values):
        assert _count_inversions(values) == count_inversions_oracle(list(values))


# -- (b) what Theorem 2 proves redundant is not done ----------------------------


class TestReplayOnce:
    PARAMS = {"iterations": 5}

    @pytest.fixture(scope="class")
    def jacobi(self, tmp_path_factory):
        """Hidden determinism: two network seeds record the same bytes."""
        base = tmp_path_factory.mktemp("replay-once")
        dirs = [str(base / name) for name in "ab"]
        runs = [record("jacobi", 8, self.PARAMS, 5 + 4 * i, dirs[i]) for i in range(2)]
        assert runs[0].archive.chunks_by_rank == runs[1].archive.chunks_by_rank
        return dirs, [run.archive for run in runs]

    def test_same_record_two_network_seeds_rehydrates_once(self, jacobi, replays):
        dirs, _ = jacobi
        a, b = rehydrate_pair(*dirs)
        assert replays == ["strict"] and a is b
        report = diff_runs(*dirs)
        assert replays == ["strict"] * 2  # nothing is kept between calls
        assert report.identical and report.events_a == report.events_b > 0

    def test_a_record_against_itself_and_two_in_memory_archives(self, jacobi, replays):
        dirs, archives = jacobi
        assert diff_runs(dirs[0], dirs[0]).identical
        assert diff_runs(*archives).identical
        assert diff_runs(archives[0], dirs[1]).identical
        assert replays == ["strict"] * 3

    def test_one_frame_fewer_rehydrates_twice(self, jacobi, replays):
        _, archives = jacobi
        short = RecordArchive(archives[1].nprocs, meta=dict(archives[1].meta))
        for rank in range(short.nprocs):
            chunks = archives[1].chunks(rank)
            for chunk in chunks[: -1 if rank == 3 else None]:
                short.append(rank, chunk)
        pair = [open_run(archive, salvage=True) for archive in (archives[0], short)]
        report = diff_runs(*pair)
        assert replays == ["salvage", "salvage"]
        assert [d.rank for d in report.per_rank if d.b is None]

    def test_one_param_value_rehydrates_twice(self, jacobi, replays, tmp_path):
        dirs, archives = jacobi
        other = record("jacobi", 8, dict(self.PARAMS, seed=77), 5, str(tmp_path / "c"))
        assert other.archive.chunks_by_rank == archives[0].chunks_by_rank
        assert diff_runs(dirs[0], str(tmp_path / "c")).identical
        assert replays == ["strict", "strict"]

    def test_another_rank_count_rehydrates_twice(self, jacobi, replays):
        dirs, _ = jacobi
        wider = record("jacobi", 9, self.PARAMS, 5).archive
        assert not diff_runs(dirs[0], wider).identical
        assert replays == ["strict", "strict"]

    def test_strict_against_salvage_rehydrates_twice(self, jacobi, replays):
        dirs, _ = jacobi
        pair = [open_run(dirs[0], salvage=mode) for mode in (False, True)]
        assert diff_runs(*pair).identical
        assert replays == ["strict", "salvage"]

    def test_different_records_share_one_program(self, replays, monkeypatch, tmp_path):
        import repro.workloads

        built = []
        real = repro.workloads.make_workload

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        params = {"vertices": 32, "iterations": 2}
        dirs = [str(tmp_path / name) for name in "ab"]
        for i, path in enumerate(dirs):
            record("unstructured", 4, params, 3 + 8 * i, path)
        monkeypatch.setattr(repro.workloads, "make_workload", counted)
        assert not diff_runs(*dirs).identical
        assert replays == ["strict", "strict"] and len(built) == 1
        # other workload metadata on side B: its own program
        other = dict(params, vertices=36)
        record("unstructured", 4, other, 3, dirs[1])
        diff_runs(*dirs)
        assert len(built) == 3

    def test_in_memory_operands_are_not_replayed(self, jacobi, replays):
        _, archives = jacobi
        kept = record("jacobi", 8, self.PARAMS, 5, keep_outcomes=True)
        a, b = rehydrate_pair(kept, dict(kept.outcomes))
        assert replays == [] and a is not b and a.result is None
        assert compare_columns(a, b).identical
        assert rehydrate_pair(a, b) == (a, b)  # columns pass through
        assert diff_runs(kept, archives[0]).identical and replays == ["strict"]


# -- the one rehydration path and its wrappers -----------------------------------


class TestRehydrate:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rehydrate") / "run")
        return path, record("mcb", 6, {"particles_per_rank": 12}, 3, path, keep_outcomes=True)

    def test_columns_are_the_flow_recorders(self, recorded, replays):
        path, kept = recorded
        run = rehydrate(path, network_seed=11)
        assert replays == ["strict"]
        assert isinstance(run, RehydratedRun) and run.label == path
        assert run.nprocs == 6 and run.ranks == tuple(range(6))
        flow = run.result.flow
        assert isinstance(flow, ColumnarFlowRecorder) and not run.result.outcomes[0]
        for name in ("src", "dst", "tag", "clock", "t"):  # views, not copies
            mine, recorders = getattr(run, "send_" + name), getattr(flow, "send_" + name)
            assert np.shares_memory(mine, recorders.values) and len(mine) == len(recorders)
        assert np.shares_memory(run.recv_cs, flow.recv_callsite.values)
        assert len(run.send_src) == flow.num_sends > 0
        # Theorem 2: the regenerated receive streams are the recorded ones
        assert compare_columns(run, RehydratedRun.from_outcomes(kept.outcomes)).identical

    def test_wrappers_keep_their_signatures(self, recorded, replays):
        path, kept = recorded
        flow = ColumnarFlowRecorder("mine")
        result = rehydrate_run(path, network_seed=4, flow=flow)
        assert result.flow is flow and result.outcomes == kept.outcomes
        assert run_outcomes(path) == kept.outcomes
        assert run_outcomes(kept) == run_outcomes(dict(kept.outcomes)) == kept.outcomes
        assert replays == ["strict", "strict"]

    def test_explain_reads_the_same_columns(self, recorded, replays):
        path, _ = recorded
        run = rehydrate(path)
        by_columns = analyze_critical_path(run, label="explain").to_json()
        assert analyze_critical_path(path).to_json() == by_columns
        assert analyze_critical_path(run.result.flow, label="explain").to_json() == by_columns
        mine = ColumnarFlowRecorder("explain")
        rehydrate_run(path, flow=mine, keep_outcomes=False)
        assert analyze_critical_path(mine).to_json() == by_columns
        assert replays == ["strict"] * 3

    def test_outcome_columns(self):
        streams = {
            4: [outcome("x", (1, 2), (0, 3)), outcome("x"), outcome("y", (1, 5))],
            1: [],
        }
        run = RehydratedRun.from_outcomes(streams, label="kept")
        assert run.ranks == (4, 1) and run.result is None and run.label == "kept"
        assert run.callsites == ["x", "y"] and run.kinds == ["testsome"] * 2
        assert run.recv_rank.tolist() == [4, 4, 4]
        assert run.recv_cs.tolist() == [0, 0, 1]
        assert run.recv_sender.tolist() == [1, 0, 1]
        assert run.recv_clock.tolist() == [2, 3, 5]
        assert run.recv_rank.dtype == np.int64 and not len(run.send_src)


# -- (c) the timeline, from the columns ------------------------------------------


class TestTimelineFromColumns:
    def test_cli_timeline_is_the_oracles_and_costs_no_replay(self, replays, tmp_path, capsys):
        from repro.cli import main

        dirs = [str(tmp_path / name) for name in "ab"]
        kept = [
            record("synthetic", 6, {"messages_per_rank": 8, "fanout": 2}, seed, path,
                   keep_outcomes=True)
            for seed, path in zip((3, 11), dirs)
        ]  # fmt: skip
        timeline = str(tmp_path / "timeline.json")
        assert main(["diff", *dirs, "--timeline", timeline]) == 0
        assert replays == ["strict", "strict"]  # one per side, none for the trace
        assert "2 distinct records: replayed twice" in capsys.readouterr().out
        report = diff_runs_oracle(*kept, label_a=dirs[0], label_b=dirs[1])
        assert not report.identical
        expect = divergence_timeline_oracle(report, *kept)
        with open(timeline, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(expect))

    def test_same_trace_from_every_operand_kind(self, tmp_path):
        kept = [
            record("mcb", 6, {"particles_per_rank": 12}, seed, str(tmp_path / str(seed)),
                   keep_outcomes=True)
            for seed in (3, 4)
        ]  # fmt: skip
        report = diff_runs(*kept)
        expect = divergence_timeline_oracle(report, *kept, window=2)
        pair = rehydrate_pair(str(tmp_path / "3"), copy.copy(kept[1].archive))
        for a, b in (kept, pair, [dict(k.outcomes) for k in kept]):
            assert divergence_timeline(report, a, b, window=2) == expect
