"""``open_run``: the one way a recorded run is resolved and opened."""

import os

import pytest

from repro.errors import ArchiveCorruptionError, RecordFormatError
from repro.obs.ledger import RunLedger
from repro.replay.durable_store import RecordArchive, StoredRun, open_run
from repro.replay.session import (
    RecordSession,
    ReplaySession,
    assert_replay_matches,
)
from repro.workloads import make_workload

NPROCS = 4
META = {
    "workload": "synthetic",
    "nprocs": NPROCS,
    "network_seed": 1,
    "params": {"seed": 3, "messages_per_rank": 12, "fanout": 2},
}


def program():
    return make_workload("synthetic", NPROCS, **META["params"])[0]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(record RunResult, its directory, the ledger it was appended to)."""
    base = tmp_path_factory.mktemp("open-run")
    directory, ledger = str(base / "rec"), str(base / "runs.jsonl")
    result = RecordSession(
        program(), nprocs=NPROCS, network_seed=1, chunk_events=8,
        store_dir=directory, store_fsync=False, meta=META, ledger=ledger,
    ).run()
    return result, directory, ledger


@pytest.fixture
def truncated(recorded, tmp_path):
    """A copy of the record as a crash leaves it: torn tail, no manifest."""
    import shutil

    _, directory, _ = recorded
    d = str(tmp_path / "crashed")
    shutil.copytree(directory, d)
    os.remove(os.path.join(d, "MANIFEST"))
    victim = os.path.join(d, "rank-00001.cdc")
    with open(victim, "r+b") as fh:
        fh.truncate(os.path.getsize(victim) - 5)
    return d


class TestSources:
    def test_directory(self, recorded):
        result, directory, _ = recorded
        run = open_run(directory)
        assert isinstance(run, StoredRun)
        assert (run.path, run.label, run.mode) == (directory, directory, "strict")
        assert run.recovery.clean
        assert run.archive == result.archive
        assert run.meta == META

    def test_ledger_run_id(self, recorded):
        result, directory, ledger = recorded
        run_id = result.ledger_entry.run_id
        for handle in (ledger, RunLedger(ledger)):
            run = open_run(run_id, ledger=handle)
            assert run.path == directory
            assert run.label == f"{run_id} (synthetic seed 1)"
            assert run.archive == result.archive

    def test_a_directory_wins_over_the_ledger(self, recorded):
        _, directory, ledger = recorded
        assert open_run(directory, ledger=ledger).label == directory

    def test_unknown_run_id(self, recorded):
        _, _, ledger = recorded
        with pytest.raises(LookupError, match="r9999"):
            open_run("r9999", ledger=ledger)

    def test_ledger_run_without_an_archive(self, recorded, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        entry = RecordSession(
            program(), nprocs=NPROCS, network_seed=1, ledger=ledger
        ).run().ledger_entry  # no store_dir: nothing on disk to name
        with pytest.raises(LookupError, match="no archive path"):
            open_run(entry.run_id, ledger=ledger)

    def test_in_memory_sources_are_taken_as_given(self, recorded):
        result, _, _ = recorded
        for source in (result.archive, result):
            run = open_run(source)
            assert run.archive is result.archive
            assert (run.path, run.recovery, run.mode) == (None, None, "strict")
        assert open_run(result.archive, salvage=True).mode == "salvage"
        run = open_run(result)
        assert open_run(run) is run

    def test_anything_else_is_a_type_error(self):
        for source in (object(), 7, None, {0: []}):
            with pytest.raises(TypeError):
                open_run(source)

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(RecordFormatError):
            open_run(str(tmp_path / "nope"))


class TestSalvage:
    def test_default_falls_back_to_salvage(self, truncated):
        run = open_run(truncated)
        assert run.mode == "salvage"
        assert not run.recovery.clean and not run.recovery.manifest_ok
        assert run.recovery.ranks[1].failure == "truncated-tail"
        assert run.meta == {}

    def test_forced_strict_refuses(self, truncated, recorded):
        with pytest.raises(RecordFormatError):
            open_run(truncated, salvage=False)
        _, directory, _ = recorded
        assert open_run(directory, salvage=False).mode == "strict"

    def test_forced_salvage(self, truncated, recorded):
        assert open_run(truncated, salvage=True).mode == "salvage"
        _, directory, _ = recorded
        run = open_run(directory, salvage=True)
        assert run.mode == "salvage" and run.recovery.clean

    def test_a_bad_manifest_is_refused_in_every_mode(self, truncated):
        with open(os.path.join(truncated, "MANIFEST"), "w") as fh:
            fh.write('{"nprocs": 4, "meta": {}}')
        for salvage in (None, True, False):
            with pytest.raises(RecordFormatError, match="unsupported archive layout"):
                open_run(truncated, salvage=salvage)


class TestProgram:
    def test_from_the_manifest(self, recorded):
        result, directory, _ = recorded
        replayed = ReplaySession(open_run(directory).program(), result).run()
        assert_replay_matches(result, replayed)

    def test_fallback_names_the_workload_of_a_manifestless_record(self, truncated):
        run = open_run(truncated)
        with pytest.raises(ValueError, match="no workload metadata"):
            run.program()
        with pytest.raises(ValueError, match="no workload metadata"):
            run.program({"nprocs": NPROCS})
        result = ReplaySession(
            run.program(dict(META, nprocs=99)), run, mode=run.mode
        ).run()  # nprocs comes from the archive, not the fallback
        assert result.nprocs == NPROCS and result.recovery is run.recovery


class TestReplaySessionAcceptsWhatOpenRunAccepts:
    def test_every_source_replays_the_record(self, recorded):
        result, directory, _ = recorded
        for source in (directory, result.archive, result, open_run(directory)):
            session = ReplaySession(program(), source, network_seed=9)
            assert_replay_matches(result, session.run())
            on_disk = source is directory or isinstance(source, StoredRun)
            assert (session.recovery is not None) == on_disk

    def test_a_directory_is_loaded_in_the_sessions_mode(self, truncated):
        with pytest.raises(RecordFormatError):
            ReplaySession(program(), truncated)  # strict: no fallback
        session = ReplaySession(program(), truncated, mode="salvage")
        assert not session.recovery.clean
        result = session.run()
        assert result.recovery is session.recovery

    def test_strict_session_still_raises_the_typed_corruption_error(
        self, recorded, tmp_path
    ):
        import shutil

        _, directory, _ = recorded
        d = str(tmp_path / "torn")
        shutil.copytree(directory, d)
        victim = os.path.join(d, "rank-00001.cdc")
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) - 5)
        with pytest.raises(ArchiveCorruptionError):
            ReplaySession(program(), d)

    def test_ledgered_replay_of_a_directory_names_it(self, recorded, tmp_path):
        _, directory, _ = recorded
        ledger = str(tmp_path / "runs.jsonl")
        entry = ReplaySession(
            program(), directory, ledger=ledger
        ).run().ledger_entry
        assert entry.archive == directory


def test_record_archive_load_is_the_strict_loader(recorded, truncated):
    result, directory, _ = recorded
    assert RecordArchive.load(directory) == result.archive
    with pytest.raises(RecordFormatError):
        RecordArchive.load(truncated)
