"""Cross-run divergence diffing (analysis/divergence.py)."""

import json

import pytest

from repro.analysis.divergence import (
    DIVERGENCE_FORMAT,
    Delivery,
    _count_inversions,
    diff_runs,
    divergence_timeline,
    run_outcomes,
    validate_divergence_json,
    write_divergence_json,
    write_divergence_timeline,
)
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.obs import validate_chrome_trace
from repro.replay.session import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 4
PARAMS = {"messages_per_rank": 6, "fanout": 2}


def kendall_tau_distance(order) -> float:
    """Normalized Kendall-tau distance of a permutation vs the identity:
    the fraction of discordant pairs, inversions / C(n, 2)."""
    n = len(order)
    if n < 2:
        return 0.0
    return _count_inversions(order) / (n * (n - 1) / 2)


def _record(seed, store_dir=None):
    program, _ = make_workload("synthetic", NPROCS, **PARAMS)
    meta = {
        "workload": "synthetic",
        "nprocs": NPROCS,
        "network_seed": seed,
        "params": PARAMS,
    }
    return RecordSession(
        program, nprocs=NPROCS, network_seed=seed, store_dir=store_dir, meta=meta
    ).run()


@pytest.fixture(scope="module")
def run_a():
    return _record(1)


@pytest.fixture(scope="module")
def run_b():
    return _record(5)


@pytest.fixture(scope="module")
def archive_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("divergence")
    a, b = str(base / "a"), str(base / "b")
    _record(1, store_dir=a)
    _record(5, store_dir=b)
    return a, b


class TestOrderStatistics:
    def test_identity_has_zero_tau(self):
        assert kendall_tau_distance(range(10)) == 0.0

    def test_reversal_has_tau_one(self):
        assert kendall_tau_distance(list(reversed(range(10)))) == 1.0

    def test_single_swap(self):
        assert kendall_tau_distance([1, 0, 2]) == pytest.approx(1 / 3)

    def test_inversion_count_matches_brute_force(self):
        seqs = [[3, 1, 4, 1, 5, 9, 2, 6], [2, 2, 2], [5, 4, 3, 2, 1, 0], []]
        for seq in seqs:
            brute = sum(
                1
                for i in range(len(seq))
                for j in range(i + 1, len(seq))
                if seq[i] > seq[j]
            )
            assert _count_inversions(list(seq)) == brute


class TestZeroDivergence:
    def test_run_vs_its_faithful_replay(self, run_a):
        program, _ = make_workload("synthetic", NPROCS, **PARAMS)
        replayed = ReplaySession(program, run_a.archive, network_seed=9).run()
        report = diff_runs(run_a, replayed)
        assert report.identical
        assert report.first is None
        assert report.per_rank == ()
        assert report.events_a == report.events_b

    def test_identical_render_and_json(self, run_a):
        report = diff_runs(run_a, run_a)
        assert "identical" in report.render()
        obj = report.to_json()
        assert obj["identical"] is True
        assert obj["first"] is None
        assert validate_divergence_json(obj) == []


class TestDivergenceLocalization:
    def test_different_seeds_diverge(self, run_a, run_b):
        report = diff_runs(run_a, run_b, label_a="seed1", label_b="seed5")
        assert not report.identical
        assert report.first is not None
        assert report.nprocs == NPROCS

    def test_position_is_the_first_mismatch(self, run_a, run_b):
        report = diff_runs(run_a, run_b)
        flat_a = {r: _flat(run_a.outcomes[r]) for r in range(NPROCS)}
        flat_b = {r: _flat(run_b.outcomes[r]) for r in range(NPROCS)}
        for d in report.per_rank:
            a, b = flat_a[d.rank], flat_b[d.rank]
            assert a[: d.position] == b[: d.position]
            if d.a is not None and d.b is not None:
                assert a[d.position] != b[d.position]

    def test_deterministic_first_divergence(self, run_a, run_b):
        keys = set()
        for _ in range(3):
            first = diff_runs(run_a, run_b).first
            side = first.a or first.b
            keys.add((first.rank, first.callsite, side.sender, side.clock))
        assert len(keys) == 1

    def test_eligible_pool_is_common_and_reference_ordered(self, run_a, run_b):
        report = diff_runs(run_a, run_b)
        flat_a = {r: _flat_deliveries(run_a.outcomes[r]) for r in range(NPROCS)}
        flat_b = {r: _flat_deliveries(run_b.outcomes[r]) for r in range(NPROCS)}
        assert any(d.eligible for d in report.per_rank)
        for d in report.per_rank:
            keys = [(c, s) for s, c in d.eligible]
            assert keys == sorted(keys)  # Definition 6 reference order
            for ident in d.eligible:  # delivered by both runs after the split
                assert ident in flat_a[d.rank][d.position:]
                assert ident in flat_b[d.rank][d.position:]

    def test_epoch_is_prefix_clock_ceiling(self, run_a, run_b):
        report = diff_runs(run_a, run_b)
        flat_a = {r: _flat_deliveries(run_a.outcomes[r]) for r in range(NPROCS)}
        for d in report.per_rank:
            prefix = flat_a[d.rank][: d.position]
            expect = {}
            for sender, clock in prefix:
                expect[sender] = max(expect.get(sender, -1), clock)
            assert dict(d.epoch) == expect


class TestInputAdaptation:
    def test_archive_rehydration_matches_in_memory(
        self, run_a, run_b, archive_dirs
    ):
        dir_a, dir_b = archive_dirs
        by_result = diff_runs(run_a, run_b).first
        by_path = diff_runs(dir_a, dir_b).first
        assert (by_result.rank, by_result.callsite) == (
            by_path.rank,
            by_path.callsite,
        )
        side_r, side_p = by_result.a or by_result.b, by_path.a or by_path.b
        assert (side_r.sender, side_r.clock) == (side_p.sender, side_p.clock)

    def test_raw_mapping_accepted(self, run_a):
        outs = run_outcomes(dict(run_a.outcomes))
        assert outs.keys() == run_a.outcomes.keys()

    def test_prefix_truncation_reported(self):
        ev = lambda s, c: ReceiveEvent(s, c)  # noqa: E731
        out = lambda *evs: MFOutcome("cs", MFKind.WAITANY, evs)  # noqa: E731
        full = {0: [out(ev(1, 0)), out(ev(1, 1)), out(ev(1, 2))]}
        short = {0: [out(ev(1, 0)), out(ev(1, 1))]}
        report = diff_runs(full, short)
        [d] = report.per_rank
        assert d.position == 2
        assert d.a is not None and d.b is None
        assert "ended" in d.describe()

    def test_rejects_opaque_source(self):
        with pytest.raises(TypeError):
            run_outcomes(object())


class TestProfiles:
    def test_profile_bounds(self, run_a, run_b):
        report = diff_runs(run_a, run_b)
        assert report.profiles
        for p in report.profiles:
            assert 0.0 <= p.kendall_tau <= 1.0
            assert 0.0 <= p.mean_clock_skew <= p.max_clock_skew or (
                p.max_clock_skew == 0
            )
            assert p.common <= min(p.events_a, p.events_b)
            assert p.diverged_ranks <= p.ranks

    def test_identical_runs_have_zero_distances(self, run_a):
        for p in diff_runs(run_a, run_a).profiles:
            assert p.kendall_tau == 0.0
            assert p.permutation_distance == 0.0
            assert p.max_clock_skew == 0


class TestExports:
    def test_json_roundtrip_validates(self, run_a, run_b, tmp_path):
        report = diff_runs(run_a, run_b)
        path = str(tmp_path / "div.json")
        write_divergence_json(report, path)
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["format"] == DIVERGENCE_FORMAT
        assert validate_divergence_json(obj) == []
        first = obj["first"]
        side = report.first.a or report.first.b
        assert (first["rank"], first["sender"], first["clock"]) == (
            report.first.rank,
            side.sender,
            side.clock,
        )

    def test_validator_catches_corruption(self, run_a, run_b):
        obj = diff_runs(run_a, run_b).to_json()
        assert validate_divergence_json("nope")
        assert validate_divergence_json({**obj, "format": "???"})
        assert validate_divergence_json({**obj, "identical": True})
        bad = {**obj, "callsites": [{"callsite": "x"}]}
        assert any("missing" in p for p in validate_divergence_json(bad))

    def test_timeline_draws_only_divergent_region(self, run_a, run_b, tmp_path):
        report = diff_runs(run_a, run_b)
        trace = divergence_timeline(report, run_a, run_b, window=3)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["flows"] > 0
        # bounded by the windows, far below the full event count
        receives = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == "recv"
        ]
        assert len(receives) <= 2 * len(report.per_rank) * (2 * 3 + 1)
        path = str(tmp_path / "div_tl.json")
        written = write_divergence_timeline(report, run_a, run_b, path)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(written))

    def test_render_names_the_first_divergence(self, run_a, run_b):
        report = diff_runs(run_a, run_b, label_a="L", label_b="R")
        text = report.render()
        assert "first divergence" in text
        assert "eligible sends" in text
        assert "nondeterminism profile" in text


def _flat(stream):
    return [
        (o.callsite, ev.rank, ev.clock) for o in stream for ev in o.matched
    ]


def _flat_deliveries(stream):
    return [(ev.rank, ev.clock) for o in stream for ev in o.matched]


def test_delivery_keys():
    d = Delivery(position=3, callsite="cs", sender=2, clock=7)
    assert d.identity == (2, 7)
    assert d.ref_key == (7, 2)
    assert "sender 2" in d.describe()
