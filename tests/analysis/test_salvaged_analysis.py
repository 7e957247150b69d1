"""similarity.py and size_model.py against salvaged (crash-truncated) archives.

Both modules were only ever exercised on clean archives; a salvage load can
hand them truncated chunk sequences and ranks with *zero* recovered chunks.
"""

import pytest

from repro.analysis.similarity import clock_series, permutation_histogram
from repro.analysis.size_model import archive_breakdown
from tests.analysis.oracles import chunk_breakdown
from repro.replay.durable_store import RetryPolicy, load_archive
from repro.replay.session import RecordSession, ReplaySession
from tests.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads import make_workload

NPROCS = 4
PARAMS = {"messages_per_rank": 40, "fanout": 2}


def _program():
    program, _ = make_workload("synthetic", NPROCS, seed=3, **PARAMS)
    return program


@pytest.fixture(scope="module")
def salvaged(tmp_path_factory):
    """(salvaged archive, recovery report) of a crash-truncated recording."""
    directory = str(tmp_path_factory.mktemp("salvaged") / "rec")
    injector = FaultInjector(FaultPlan(crash_after_bytes=150))
    session = RecordSession(
        _program(),
        nprocs=NPROCS,
        network_seed=1,
        chunk_events=64,
        store_dir=directory,
        store_opener=injector.open,
        store_fsync=False,
        store_retry=RetryPolicy(attempts=2, base_delay=0.0),
    )
    with pytest.raises(InjectedCrash):
        session.run()
    return load_archive(directory, mode="salvage")


@pytest.fixture(scope="module")
def salvaged_outcomes(salvaged):
    """Outcome streams of the salvage replay of the truncated record."""
    archive, _ = salvaged
    result = ReplaySession(_program(), archive, mode="salvage").run()
    return result.outcomes


class TestSizeModelOnSalvage:
    def test_archive_has_a_zero_chunk_rank(self, salvaged):
        archive, recovery = salvaged
        assert not recovery.clean
        assert any(not archive.chunks(r) for r in range(archive.nprocs))

    def test_breakdown_counts_only_recovered_chunks(self, salvaged):
        archive, _ = salvaged
        breakdown = archive_breakdown(archive)
        chunks = [c for r in range(archive.nprocs) for c in archive.chunks(r)]
        assert breakdown.chunks == len(chunks)
        assert breakdown.events == sum(c.num_events for c in chunks)
        assert breakdown.total == archive.total_payload_bytes() > 0
        per_table = breakdown.per_event()
        assert all(v >= 0 for v in per_table.values())

    def test_breakdown_is_sum_of_chunk_breakdowns(self, salvaged):
        archive, _ = salvaged
        total = archive_breakdown(archive)
        by_chunk = sum(
            chunk_breakdown(c).total - chunk_breakdown(c).header
            for r in range(archive.nprocs)
            for c in archive.chunks(r)
        )
        # everything outside the per-rank preambles and chunk headers is
        # attributable chunk table bytes
        assert by_chunk <= total.total

    def test_empty_rank_contributes_header_only(self, salvaged):
        archive, _ = salvaged
        empty = next(
            r for r in range(archive.nprocs) if not archive.chunks(r)
        )
        assert archive.chunks(empty) == []
        # a one-rank view of the empty rank: its file is the store's magic
        # alone, no frame, so there is no payload to attribute
        from repro.replay.durable_store import ARCHIVE_MAGIC, RecordArchive

        solo = RecordArchive(nprocs=1)
        breakdown = archive_breakdown(solo)
        assert breakdown.chunks == 0
        assert breakdown.events == 0
        assert breakdown.total == breakdown.header == 0
        assert solo.total_bytes() == len(ARCHIVE_MAGIC)


class TestSimilarityOnSalvage:
    def test_histogram_covers_every_rank(self, salvaged_outcomes):
        histogram = permutation_histogram(salvaged_outcomes)
        assert len(histogram.percentages) == NPROCS
        assert all(0.0 <= p <= 1.0 for p in histogram.percentages)
        assert 0.0 <= histogram.mean <= 1.0
        assert sum(c for _, c in histogram.bins()) == NPROCS

    def test_clock_series_on_truncated_streams(self, salvaged_outcomes):
        for rank, stream in salvaged_outcomes.items():
            series = clock_series(stream, rank)
            assert 0.0 <= series.monotone_fraction <= 1.0
            assert series.inversions() >= 0
            if not stream:
                assert series.clocks == ()

    def test_some_rank_replayed_fewer_events_than_recorded(
        self, salvaged, salvaged_outcomes
    ):
        archive, _ = salvaged
        recovered = sum(
            c.num_events for r in range(NPROCS) for c in archive.chunks(r)
        )
        replayed = sum(
            len(o.matched)
            for stream in salvaged_outcomes.values()
            for o in stream
        )
        full = NPROCS * PARAMS["messages_per_rank"] * PARAMS["fanout"]
        assert replayed <= recovered < full

    def test_empty_outcome_mapping(self):
        histogram = permutation_histogram({})
        assert histogram.percentages == ()
        assert histogram.mean == 0.0
        series = clock_series([], rank=0)
        assert series.clocks == ()
        assert series.monotone_fraction == 1.0


class TestDiffAgainstCrashedRecording:
    """``repro diff`` where one side is the manifest-less directory a
    mid-run crash leaves: the clean side's manifest names the workload for
    both, and each side is opened and replayed exactly once — with
    ``--timeline`` too (that pass used to replay both sides again, without
    the fallback: ``ValueError: archive has no workload metadata``)."""

    META = {
        "workload": "synthetic",
        "nprocs": NPROCS,
        "network_seed": 2,
        "params": {"seed": 3, **PARAMS},
    }

    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("crashed-diff")
        clean, crashed = str(base / "clean"), str(base / "crashed")
        RecordSession(
            _program(), nprocs=NPROCS, network_seed=2, chunk_events=64,
            store_dir=clean, store_fsync=False, meta=self.META,
        ).run()
        injector = FaultInjector(FaultPlan(crash_after_bytes=150))
        with pytest.raises(InjectedCrash):
            RecordSession(
                _program(), nprocs=NPROCS, network_seed=1, chunk_events=64,
                store_dir=crashed, store_opener=injector.open,
                store_fsync=False, store_retry=RetryPolicy(attempts=2, base_delay=0.0),
                meta=dict(self.META, network_seed=1),
            ).run()
        return clean, crashed

    def test_library_diff_borrows_the_counterpart_manifest(self, dirs, replays):
        from repro.analysis import diff_runs

        clean, crashed = dirs
        report = diff_runs(clean, crashed)
        assert replays == ["strict", "salvage"]
        assert report.events_a > report.events_b >= 0
        assert not report.identical

    @pytest.mark.parametrize("crashed_first", [False, True])
    def test_cli_diff_with_timeline(
        self, dirs, replays, crashed_first, tmp_path, capsys
    ):
        import json

        from repro.cli import main
        from repro.obs import validate_chrome_trace

        operands = list(reversed(dirs)) if crashed_first else list(dirs)
        timeline = str(tmp_path / "timeline.json")
        assert main(["diff", *operands, "--timeline", timeline]) == 0
        assert sorted(replays) == ["salvage", "strict"]  # one replay per side
        assert "divergence timeline" in capsys.readouterr().out
        with open(timeline, encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_cli_diff_of_two_clean_records_replays_once(
        self, dirs, replays, tmp_path, capsys
    ):
        from repro.cli import main

        clean, _ = dirs
        timeline = str(tmp_path / "timeline.json")
        assert main(["diff", clean, clean, "--timeline", timeline]) == 0
        # four before PR 17 (the timeline re-ran both), two until PR 22: the
        # same record on both sides is one replay (Theorem 2)
        assert replays == ["strict"]
        assert "1 distinct record: replayed once (Theorem 2)" in capsys.readouterr().out
