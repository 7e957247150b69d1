"""Analysis on columns (analysis/columns.py, analysis/divergence.py).

Four things: the array compare against the object compare it replaced
(``tests/analysis/oracles.py``), the replay-once rule of
``rehydrate_pair`` (counting ``ReplaySession.run`` calls: the ``replays``
fixture of ``conftest.py``), the
timeline drawn from the columns, and two distinct records replayed in two
processes, which must give what one process gives.
"""

from __future__ import annotations

import atexit
import contextlib
import copy
import errno
import json
import os
import signal
import sys
import threading

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
from repro.errors import ReplayDivergence
from repro.obs import ColumnarFlowRecorder, TelemetryRegistry, use_registry
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


# -- (d) two distinct records, two processes --------------------------------------

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
COLUMNS = [*("send_" + c for c in ("src", "dst", "tag", "clock", "t"))] + [
    *("recv_" + c for c in ("rank", "cs", "sender", "clock", "t"))
]


@contextlib.contextmanager
def another_thread():
    """A second live thread: ``rehydrate_pair`` then replays in one process."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def sides(monkeypatch, tmp_path):
    """``rehydrate`` calls as ``(pid, nprocs of the run)``, from this process
    and any child, through a file both append to. With ``sides.kill_child``
    set, a child sends itself ``SIGKILL`` instead of replaying."""
    import repro.analysis.columns as columns

    path, real, parent = tmp_path / "rehydrate-calls", columns.rehydrate, os.getpid()

    def logged(run, **kw):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{os.getpid()} {run.archive.nprocs}\n".encode())
        os.close(fd)
        if logged.kill_child and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(run, **kw)

    def calls():
        if not path.exists():
            return []
        return [tuple(int(v) for v in line.split()) for line in path.read_text().splitlines()]

    logged.kill_child, logged.calls = False, calls
    monkeypatch.setattr(columns, "rehydrate", logged)
    return logged


def assert_same_pair(forked, serial):
    for mine, theirs in zip(forked, serial):
        for name in COLUMNS:
            assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
        assert (mine.label, mine.nprocs, mine.ranks) == (theirs.label, theirs.nprocs, theirs.ranks)
        assert (mine.callsites, mine.kinds) == (theirs.callsites, theirs.kinds)
        ours, want = mine.result, theirs.result
        assert ours is not None and ours.mode == want.mode
        assert ours.app_results == want.app_results and ours.final_clocks == want.final_clocks
        assert ours.stats.total_events == want.stats.total_events > 0
        assert ours.truncated_at == want.truncated_at


class TestTwoRecordsTwoProcesses:
    @pytest.mark.parametrize("seed", [7, 31])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_parallel_equals_serial(self, shape, seed, tmp_path, sides):
        app, nprocs, params = SHAPES[shape]
        dirs = [str(tmp_path / name) for name in "ab"]
        for i, path in enumerate(dirs):
            record(app, nprocs, dict(params, seed=seed), seed + 1 + 2 * i, path)
        forked = rehydrate_pair(*dirs)
        pids = {pid for pid, _ in sides.calls()}
        report = diff_runs(*dirs).to_json()
        kw = {"context": 2, "label_a": "x", "label_b": "y"}
        swapped = diff_runs(dirs[1], dirs[0], **kw).to_json()
        with another_thread():
            serial = rehydrate_pair(*dirs)
            assert diff_runs(*dirs).to_json() == report
            assert diff_runs(dirs[1], dirs[0], **kw).to_json() == swapped
        if shape == "jacobi64":  # hidden determinism: one replay, nothing forked
            assert forked[0] is forked[1] and pids == {os.getpid()}
            return
        assert_same_pair(forked, serial)
        forks = sys.platform == "linux"
        assert len(pids) == 1 + forks and (forked[1].result.flow is None) == forks

    @linux_only
    def test_side_b_replays_in_another_process(self, tmp_path, sides):
        dirs = [str(tmp_path / name) for name in "ab"]
        record("mcb", 6, {"particles_per_rank": 12}, 3, dirs[0])
        record("mcb", 7, {"particles_per_rank": 12}, 3, dirs[1])
        exits = tmp_path / "atexit"
        hook = lambda: exits.write_text(str(os.getpid()))  # noqa: E731
        atexit.register(hook)
        try:
            a, b = rehydrate_pair(*dirs)
        finally:
            atexit.unregister(hook)
        assert not exits.exists()  # the child left by os._exit
        by_side = {nprocs: pid for pid, nprocs in sides.calls()}
        assert by_side[6] == os.getpid() != by_side[7] and len(sides.calls()) == 2
        assert a.nprocs == 6 and b.nprocs == 7 and b.result.archive is None
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("why", ["thread", "telemetry"])
    def test_what_keeps_the_diff_in_one_process(self, why, tmp_path, sides):
        dirs = [str(tmp_path / name) for name in "ab"]
        for seed, path in zip((3, 4), dirs):
            record("mcb", 6, {"particles_per_rank": 12}, seed, path)
        guard = another_thread() if why == "thread" else use_registry(TelemetryRegistry())
        with guard:
            a, b = rehydrate_pair(*dirs)
        assert [pid for pid, _ in sides.calls()] == [os.getpid()] * 2
        assert a.result.flow is not None and b.result.flow is not None


class TestTwoProcessesFail:
    @pytest.fixture(scope="class")
    def pair(self):
        """A record, and another whose manifest names other params: its
        replay runs out of matches."""
        runs = [record("mcb", 6, {"particles_per_rank": 12}, s, None) for s in (3, 4)]
        other = runs[1].archive
        bad = RecordArchive(other.nprocs, meta=dict(other.meta, params={"particles_per_rank": 14}))
        for rank in range(bad.nprocs):
            for chunk in other.chunks(rank):
                bad.append(rank, chunk)
        return runs[0].archive, bad

    @staticmethod
    def failure(a, b):
        with pytest.raises(ReplayDivergence) as caught:
            diff_runs(a, b)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("bad_side", ["a", "b"])
    def test_the_serial_error_and_no_child_left(self, pair, bad_side, monkeypatch):
        good, bad = pair
        operands = (good, bad) if bad_side == "b" else (bad, good)
        with another_thread():
            serial = self.failure(*operands)
        forks = []
        real_fork = os.fork

        def counted():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted)
        assert self.failure(*operands) == serial
        assert len(forks) == (1 if sys.platform == "linux" else 0)
        with pytest.raises(ChildProcessError):  # no child survives the raise
            os.waitpid(-1, os.WNOHANG)

    def test_no_process_to_be_had_is_the_serial_path(self, pair, monkeypatch):
        good = pair[0]
        other = record("mcb", 6, {"particles_per_rank": 12}, 5, None).archive
        with another_thread():
            expect = diff_runs(good, other).to_json()

        def refused():
            raise BlockingIOError(errno.EAGAIN, "no process to be had")

        monkeypatch.setattr(os, "fork", refused)
        assert diff_runs(good, other).to_json() == expect and not expect["identical"]

    @linux_only
    def test_an_interrupt_here_kills_the_child(self, pair, monkeypatch):
        import repro.analysis.columns as columns

        other = record("mcb", 6, {"particles_per_rank": 12}, 5, None).archive
        real, parent = columns.rehydrate, os.getpid()

        def interrupted(run, **kw):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(run, **kw)

        monkeypatch.setattr(columns, "rehydrate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            diff_runs(pair[0], other)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @linux_only
    def test_a_killed_child_falls_back_to_this_process(self, tmp_path, sides):
        dirs = [str(tmp_path / name) for name in "ab"]
        for seed, path in zip((3, 4), dirs):
            record("mcb", 6, {"particles_per_rank": 12}, seed, path)
        with another_thread():
            expect = diff_runs(*dirs).to_json()
        calls = len(sides.calls())
        sides.kill_child = True
        assert diff_runs(*dirs).to_json() == expect and not expect["identical"]
        pids = [pid for pid, _ in sides.calls()[calls:]]
        assert len(pids) == 3 and pids.count(os.getpid()) == 2  # B, again, here
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
