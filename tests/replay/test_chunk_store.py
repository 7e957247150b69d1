"""Record archive storage: accounting, persistence, corruption."""

import os

import pytest

from repro.core.events import ReceiveEvent
from tests.core.test_pipeline import encode_chunk
from repro.core.record_table import RecordTable
from repro.errors import RecordFormatError
from repro.replay.durable_store import (
    ARCHIVE_MAGIC,
    RecordArchive,
    bytes_per_event,
    callsite_table,
    frame_bytes,
    rank_filename,
    summarize,
)

#: the names table ``archive`` stores in its manifest, once
TABLE = b'"callsites":["a","b"],'


def chunk(events, callsite="cs", assist=False):
    return encode_chunk(
        RecordTable(callsite, tuple(events), (), ()), replay_assist=assist
    )


@pytest.fixture
def archive():
    a = RecordArchive(nprocs=2)
    a.append(0, chunk([ReceiveEvent(1, 1), ReceiveEvent(1, 3)], "a"))
    a.append(0, chunk([ReceiveEvent(1, 5)], "b"))
    a.append(0, chunk([ReceiveEvent(1, 7)], "a"))
    a.append(1, chunk([ReceiveEvent(0, 2)], "a", assist=True))
    return a


class TestAccounting:
    def test_total_events(self, archive):
        assert archive.total_events() == 5

    def test_rank_bytes_positive_and_total_sums(self, archive):
        assert callsite_table(["b", "a", "a"]) == TABLE
        assert archive.total_bytes() == (
            archive.rank_bytes(0) + archive.rank_bytes(1) + len(TABLE)
        )

    def test_bytes_per_event(self, archive):
        assert bytes_per_event(archive) == pytest.approx(
            archive.total_bytes() / 5
        )

    def test_empty_archive(self):
        assert bytes_per_event(RecordArchive(1)) == 0.0

    def test_per_node_aggregation(self):
        a = RecordArchive(nprocs=48)
        for r in range(48):
            a.append(r, chunk([ReceiveEvent(0, 1)]))
        nodes = a.per_node_bytes(procs_per_node=24)
        assert set(nodes) == {0, 1}

    def test_chunks_by_callsite_preserves_order(self, archive):
        by_cs = archive.chunks_by_callsite(0)
        assert len(by_cs["a"]) == 2
        assert by_cs["a"][0].num_events == 2

    def test_rank_out_of_range_rejected(self, archive):
        with pytest.raises(RecordFormatError):
            archive.append(7, chunk([ReceiveEvent(0, 1)]))

    def test_summarize(self, archive):
        info = summarize(archive)
        assert info["nprocs"] == 2
        assert info["callsites"] == ["a", "b"]

    def test_rank_bytes_memoized_and_invalidated_on_append(
        self, archive, monkeypatch
    ):
        """Sizes are memoized per chunk: asking again deflates nothing, and
        an append costs exactly the new chunk's one deflate."""
        import zlib

        before = archive.rank_bytes(0)
        calls = []
        real_deflate = zlib.compressobj

        def counting(*args, **kwargs):
            calls.append(args)
            return real_deflate(*args, **kwargs)

        monkeypatch.setattr(zlib, "compressobj", counting)
        assert archive.rank_bytes(0) == before  # served from the memo
        assert archive.rank_payload_bytes(0) > 0  # same memo, other column
        assert calls == []
        archive.append(0, chunk([ReceiveEvent(1, 9)], "a"))
        after = archive.rank_bytes(0)
        assert len(calls) == 1  # only the appended chunk
        assert after > before
        archive.total_bytes()
        assert len(calls) == 2  # rank 1's one chunk, once
        archive.per_node_bytes()
        bytes_per_event(archive)
        assert len(calls) == 2

    def test_invalidate_size_cache_after_direct_mutation(self, archive):
        """There is no cache to invalidate: the memo is per chunk object,
        so editing ``chunks_by_rank`` directly moves the size by itself."""
        before = archive.rank_bytes(0)
        removed = archive.chunks_by_rank[0].pop()
        shorter = archive.rank_bytes(0)
        assert shorter == before - len(frame_bytes(removed))
        archive.chunks_by_rank[0][0] = chunk(
            [ReceiveEvent(1, c) for c in range(1, 40, 2)], "a"
        )
        assert archive.rank_bytes(0) == len(ARCHIVE_MAGIC) + sum(
            len(frame_bytes(c)) for c in archive.chunks(0)
        )
        assert archive.rank_bytes(0) > shorter
        assert not hasattr(archive, "invalidate_size_cache")

    def test_in_memory_archive_reports_what_save_then_writes(
        self, archive, tmp_path
    ):
        """An archive that never met a store sizes itself as the files
        ``save`` writes — empty ranks hold the 8-byte magic — and the names
        table it puts in the manifest."""
        sizes = [archive.rank_bytes(r) for r in range(archive.nprocs)]
        total = archive.total_bytes()
        directory = str(tmp_path / "record")
        archive.save(directory)
        on_disk = [
            os.path.getsize(os.path.join(directory, rank_filename(r)))
            for r in range(archive.nprocs)
        ]
        assert sizes == on_disk
        assert total == sum(on_disk) + len(TABLE)
        assert TABLE in open(os.path.join(directory, "MANIFEST"), "rb").read()
        assert RecordArchive(nprocs=3).total_bytes() == 3 * len(ARCHIVE_MAGIC)


class TestPersistence:
    def test_save_load_roundtrip(self, archive, tmp_path):
        directory = str(tmp_path / "record")
        archive.save(directory)
        loaded = RecordArchive.load(directory)
        assert loaded.nprocs == archive.nprocs
        assert loaded.chunks_by_rank == archive.chunks_by_rank

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(RecordFormatError):
            RecordArchive.load(str(tmp_path))

    def test_malformed_manifest_rejected(self, tmp_path):
        with open(tmp_path / "MANIFEST", "w") as fh:
            fh.write("bogus\n")
        with pytest.raises(RecordFormatError):
            RecordArchive.load(str(tmp_path))

    def test_truncated_rank_file_rejected(self, archive, tmp_path):
        directory = str(tmp_path / "record")
        archive.save(directory)
        path = os.path.join(directory, "rank-00000.cdc")
        with open(path, "r+b") as fh:
            fh.truncate(3)
        with pytest.raises(Exception):  # zlib or format error
            RecordArchive.load(directory)
