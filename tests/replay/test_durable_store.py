"""Durable archive format (version 6): framing, atomicity, salvage, retries."""

import dataclasses
import errno
import json
import os
import struct
import time
import tracemalloc
import zlib

import pytest

from repro.core.events import ReceiveEvent
from repro.core.formats import (
    callsite_id,
    callsite_label,
    encode_frame_payload,
    serialize_cdc_chunks,
)
from tests.core.test_pipeline import encode_chunk
from repro.core.record_table import RecordTable
from repro.core.varint import encode_uvarint
from repro.errors import ArchiveCorruptionError, RecordFormatError
from repro.replay.durable_store import (
    ARCHIVE_MAGIC,
    MAX_ABSENT_RANKS,
    MAX_PAYLOAD_BYTES,
    DurableArchiveWriter,
    RecordArchive,
    RetryPolicy,
    frame_bytes,
    load_archive,
    open_run,
    rank_filename,
    save_archive,
)


def chunk(events, callsite="cs", assist=False):
    return encode_chunk(
        RecordTable(callsite, tuple(events), (), ()), replay_assist=assist
    )


@pytest.fixture
def archive():
    a = RecordArchive(nprocs=3, meta={"workload": "unit"})
    a.append(0, chunk([ReceiveEvent(1, 1), ReceiveEvent(1, 3)], "a"))
    a.append(0, chunk([ReceiveEvent(2, 5)], "b"))
    a.append(0, chunk([ReceiveEvent(1, 7), ReceiveEvent(2, 9)], "a"))
    a.append(1, chunk([ReceiveEvent(0, 2)], "a", assist=True))
    # rank 2 intentionally empty: header-only file must round-trip
    return a


def labelled(chunks):
    """``chunks`` as a directory without its manifest gives them back: each
    called by the label of its callsite's id."""
    return [
        dataclasses.replace(c, callsite=callsite_label(callsite_id(c.callsite)))
        for c in chunks
    ]


def rank_path(directory, rank=0):
    return os.path.join(directory, rank_filename(rank))


def framed(body: bytes, stored: bool = False) -> bytes:
    """``body`` behind a frame header: varint length and stored-raw bit, CRC-32."""
    header = bytearray()
    encode_uvarint(len(body) << 1 | stored, header)
    return bytes(header) + struct.pack("<I", zlib.crc32(body)) + body


def raw_deflate(data: bytes) -> bytes:
    return zlib.compress(data)[2:-4]  # zlib's header and Adler-32 off


#: a two-rank directory written by an earlier commit (7b1d829, version 2:
#: ``CDCARC2\n``, u32 length + u32 CRC headers, zlib-wrapped payloads, clock-
#: order diffs and the epoch rank/count/first-clock columns on assist chunks)
V2_DIRECTORY = {
    "MANIFEST": (
        b'{\n  "format": "cdc-archive",\n  "frames": {\n    "0": 1,\n    "1": 1\n  },'
        b'\n  "meta": {\n    "workload": "unit"\n  },\n  "nprocs": 2,\n  "version": 2\n}\n'
    ),
    "rank-00000.cdc": bytes.fromhex(
        "434443415243320a1d000000c54dea7a789c7376713664644c64646062000146"
        "264636206602b31801250a0177"
    ),
    "rank-00001.cdc": bytes.fromhex(
        "434443415243320a1e0000001f432273789c7376713664644c64646064600062"
        "46262066616404f11800235a016e"
    ),
}

#: a two-rank directory written by the parent commit (d575b0d, version 3:
#: ``CDCARC3\n``, an indented manifest with ``frames`` an object, payloads
#: that open with ``CDC1`` and a string table and write every column of an
#: assist chunk as varints)
V3_DIRECTORY = {
    "MANIFEST": (
        b'{\n  "format": "cdc-archive",\n  "frames": {\n    "0": 1,\n    "1": 1\n  },'
        b'\n  "meta": {\n    "workload": "unit"\n  },\n  "nprocs": 2,\n  "version": 3\n}\n'
    ),
    "rank-00000.cdc": bytes.fromhex(
        "434443415243330a15f0adf3887376713664644c6464606200014626463620067200"
    ),
    "rank-00001.cdc": bytes.fromhex(
        "434443415243330a16a89155177376713664644c646464660001262e46060620931100"
    ),
}


#: a two-rank directory written by the parent commit (c000eb1, version 4:
#: ``CDCARC4\n``, every frame body deflated behind its plain length, and a
#: sender column always a packed index)
V4_DIRECTORY = {
    "MANIFEST": (
        b'{"format":"cdc-archive","frames":[1,1],"meta":{"workload":"unit"},'
        b'"nprocs":2,"version":4}\n'
    ),
    "rank-00000.cdc": bytes.fromhex("434443415243340a0fb8064e1b634c64606200014626463620067200"),
    "rank-00001.cdc": bytes.fromhex("434443415243340a0adeb9ee71634c6464626460e00000"),
}

#: a two-rank directory written by the parent commit (ef4753a, version 5:
#: ``CDCARC5\n``, every frame payload opening with its callsite's name)
V5_DIRECTORY = {
    "MANIFEST": (
        b'{"format":"cdc-archive","frames":[1,1],"meta":{"workload":"unit"},'
        b'"nprocs":2,"version":5}\n'
    ),
    "rank-00000.cdc": bytes.fromhex("434443415243350a1eb8064e1b634c64606200014626463620067200"),
    "rank-00001.cdc": bytes.fromhex("434443415243350a11cfc1a4cd0161010101000004"),
}


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_chunks_and_meta(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        loaded, report = load_archive(d)
        assert report.clean
        assert loaded.nprocs == archive.nprocs
        assert loaded.meta == archive.meta
        assert loaded.chunks_by_rank == archive.chunks_by_rank

    def test_save_is_bit_identical_across_round_trips(self, archive, tmp_path):
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        save_archive(archive, d1)
        loaded, _ = load_archive(d1)
        save_archive(loaded, d2)
        for name in ["MANIFEST"] + [rank_filename(r) for r in range(3)]:
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            assert b1 == b2, name

    def test_no_tmp_files_left_behind(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        assert not [n for n in os.listdir(d) if n.endswith(".tmp")]

    def test_empty_rank_is_header_only(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        assert open(rank_path(d, 2), "rb").read() == ARCHIVE_MAGIC

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_v1_style_directory_is_rejected_in_both_modes(
        self, archive, tmp_path, mode
    ):
        """The old monolithic layout — a manifest without format/version,
        one zlib blob per rank — has no reader: a typed error naming the
        unsupported layout, never a guess."""
        d = tmp_path / "legacy"
        d.mkdir()
        (d / "MANIFEST").write_text(
            json.dumps({"nprocs": archive.nprocs, "meta": archive.meta})
        )
        for rank in range(archive.nprocs):
            blob = zlib.compress(serialize_cdc_chunks(archive.chunks(rank)))
            (d / rank_filename(rank)).write_bytes(blob)
        with pytest.raises(RecordFormatError, match="unsupported archive layout"):
            load_archive(str(d), mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_manifest_stripped_of_format_and_version_does_not_load(
        self, archive, tmp_path, mode
    ):
        """Deleting two keys used to switch the frame-count check off and
        still load "clean"."""
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        path = os.path.join(d, "MANIFEST")
        manifest = json.load(open(path))
        del manifest["format"], manifest["version"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(RecordFormatError, match="unsupported archive layout"):
            load_archive(d, mode=mode)

    def test_record_archive_save_writes_the_one_layout(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        archive.save(d)
        assert ARCHIVE_MAGIC == b"CDCARC6\n"
        assert open(rank_path(d), "rb").read().startswith(ARCHIVE_MAGIC)
        manifest = open(os.path.join(d, "MANIFEST"), "rb").read()
        assert manifest.count(b"\n") == 1 and b" " not in manifest  # one compact line
        assert json.loads(manifest)["version"] == 6
        assert json.loads(manifest)["frames"] == [3, 1, 0]
        assert json.loads(manifest)["callsites"] == ["a", "b"]  # each name once
        assert RecordArchive.load(d).chunks_by_rank == archive.chunks_by_rank

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_version_2_directory_is_rejected_in_both_modes(self, tmp_path, mode):
        self.assert_rejected_by_name(tmp_path, mode, V2_DIRECTORY, "version 2")

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_version_3_directory_is_rejected_in_both_modes(self, tmp_path, mode):
        self.assert_rejected_by_name(tmp_path, mode, V3_DIRECTORY, "version 3")

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_version_4_directory_is_rejected_in_both_modes(self, tmp_path, mode):
        self.assert_rejected_by_name(tmp_path, mode, V4_DIRECTORY, "version 4")

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_version_5_directory_is_rejected_in_both_modes(self, tmp_path, mode):
        self.assert_rejected_by_name(tmp_path, mode, V5_DIRECTORY, "version 5")

    def assert_rejected_by_name(self, tmp_path, mode, directory, version):
        """A replaced layout has no reader: bytes an earlier commit wrote are
        refused by name, at once, however they are opened."""
        for name, data in directory.items():
            (tmp_path / name).write_bytes(data)
        started = time.perf_counter()
        with pytest.raises(RecordFormatError, match="unsupported archive layout") as info:
            load_archive(str(tmp_path), mode=mode)
        assert version in str(info.value)
        with pytest.raises(RecordFormatError, match=version):
            open_run(str(tmp_path), salvage=(mode == "salvage") or None)
        assert time.perf_counter() - started < 1.0
        # without its manifest a salvage finds no frame it can read
        os.remove(tmp_path / "MANIFEST")
        recovered, report = load_archive(str(tmp_path), mode="salvage")
        assert [r.failure for r in report.ranks.values()] == ["bad-magic"] * 2
        assert recovered.total_events() == 0


class TestIncrementalWriter:
    def test_incremental_equals_full_save(self, archive, tmp_path):
        d_inc, d_full = str(tmp_path / "inc"), str(tmp_path / "full")
        with DurableArchiveWriter(d_inc, archive.nprocs) as writer:
            for rank, c in archive.iter_all():
                writer.append(rank, c)
            writer.close(dict(archive.meta))
        save_archive(archive, d_full)
        for name in ["MANIFEST"] + [rank_filename(r) for r in range(3)]:
            assert (
                open(os.path.join(d_inc, name), "rb").read()
                == open(os.path.join(d_full, name), "rb").read()
            ), name

    def test_abort_leaves_no_manifest(self, archive, tmp_path):
        d = str(tmp_path / "crashed")
        writer = DurableArchiveWriter(d, 3)
        writer.append(0, archive.chunks(0)[0])
        writer.abort()
        assert not os.path.exists(os.path.join(d, "MANIFEST"))
        with pytest.raises(RecordFormatError):
            load_archive(d, mode="strict")
        recovered, report = load_archive(d, mode="salvage")
        assert not report.clean
        assert recovered.chunks(0) == labelled(archive.chunks(0)[:1])

    def test_append_after_close_rejected(self, archive, tmp_path):
        writer = DurableArchiveWriter(str(tmp_path / "w"), 1)
        writer.close()
        with pytest.raises(RecordFormatError):
            writer.append(0, archive.chunks(0)[0])

    def test_out_of_range_rank_rejected(self, archive, tmp_path):
        with DurableArchiveWriter(str(tmp_path / "w"), 1) as writer:
            with pytest.raises(RecordFormatError):
                writer.append(5, archive.chunks(0)[0])


class TestCorruptionDetection:
    def saved(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        return d

    def test_truncated_tail_strict_raises_with_context(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        path = rank_path(d)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-3])
        with pytest.raises(ArchiveCorruptionError) as info:
            load_archive(d, mode="strict")
        err = info.value
        assert err.rank == 0
        assert err.frame_index == 2  # first two frames intact
        assert "truncated-tail" in str(err)
        assert "epoch ceilings" in err.epoch_context

    def test_truncated_tail_salvages_prefix(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        path = rank_path(d)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-3])
        recovered, report = load_archive(d, mode="salvage")
        rec = report.ranks[0]
        assert rec.failure == "truncated-tail"
        assert rec.frames_kept == 2
        assert rec.bytes_dropped > 0
        assert recovered.chunks(0) == archive.chunks(0)[:2]
        assert recovered.chunks(1) == archive.chunks(1)

    def test_every_truncation_point_yields_valid_prefix(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        full = open(rank_path(d), "rb").read()
        frames = [frame_bytes(c) for c in archive.chunks(0)]
        boundaries = [len(ARCHIVE_MAGIC)]
        for f in frames:
            boundaries.append(boundaries[-1] + len(f))
        for cut in range(len(full)):
            open(rank_path(d), "wb").write(full[:cut])
            recovered, report = load_archive(d, mode="salvage")
            expect = sum(1 for b in boundaries[1:] if b <= cut)
            assert report.ranks[0].frames_kept == expect, cut
            assert recovered.chunks(0) == archive.chunks(0)[:expect], cut

    def test_crc_mismatch_detected(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        path = rank_path(d)
        data = bytearray(open(path, "rb").read())
        # flip one payload bit of the second frame
        first_len = len(frame_bytes(archive.chunks(0)[0]))
        second_payload = len(ARCHIVE_MAGIC) + first_len + 5
        data[second_payload] ^= 0x10
        open(path, "wb").write(bytes(data))
        with pytest.raises(ArchiveCorruptionError) as info:
            load_archive(d, mode="strict")
        assert info.value.frame_index == 1
        recovered, report = load_archive(d, mode="salvage")
        assert report.ranks[0].failure == "crc-mismatch"
        assert recovered.chunks(0) == archive.chunks(0)[:1]

    def test_missing_rank_file(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        os.remove(rank_path(d, 1))
        with pytest.raises(RecordFormatError) as info:
            RecordArchive.load(d)
        assert "rank" in str(info.value) and rank_filename(1) in str(info.value)
        recovered, report = load_archive(d, mode="salvage")
        assert report.ranks[1].failure == "missing-file"
        assert recovered.chunks(1) == []

    def test_frame_count_mismatch_vs_manifest(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        manifest = json.load(open(os.path.join(d, "MANIFEST")))
        manifest["frames"][0] = 7
        with open(os.path.join(d, "MANIFEST"), "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArchiveCorruptionError) as info:
            load_archive(d, mode="strict")
        assert "frame-count-mismatch" in str(info.value)

    def test_garbage_rank_file_is_bad_magic(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        open(rank_path(d), "wb").write(b"not an archive at all")
        with pytest.raises(ArchiveCorruptionError, match="bad-magic"):
            load_archive(d, mode="strict")
        recovered, report = load_archive(d, mode="salvage")
        assert report.ranks[0].failure == "bad-magic"
        assert report.ranks[0].bytes_dropped == len(b"not an archive at all")
        assert recovered.chunks(0) == []
        assert recovered.chunks(1) == archive.chunks(1)

    def test_any_flipped_magic_bit_is_bad_magic(self, archive, tmp_path):
        """One flipped bit in the magic is reported as what it is; it used
        to fall through to the v1 reader as ``legacy-corrupt … incorrect
        header check``."""
        d = self.saved(archive, tmp_path)
        intact = open(rank_path(d), "rb").read()
        for bit in range(8 * len(ARCHIVE_MAGIC)):
            data = bytearray(intact)
            data[bit // 8] ^= 1 << (bit % 8)
            open(rank_path(d), "wb").write(bytes(data))
            with pytest.raises(ArchiveCorruptionError) as info:
                load_archive(d, mode="strict")
            assert info.value.rank == 0 and "bad-magic" in str(info.value), bit
            _, report = load_archive(d, mode="salvage")
            assert report.ranks[0].failure == "bad-magic", bit
            assert "legacy" not in report.render()

    def test_frame_holding_two_chunks_is_a_decode_error(self, archive, tmp_path):
        """A frame is exactly one chunk (what makes every frame prefix an
        epoch-aligned chunk prefix, and a frame's size a chunk's size)."""
        d = self.saved(archive, tmp_path)
        first, second = map(encode_frame_payload, archive.chunks(0)[:2])
        for payload, failure in (
            (first + second, "frame-decode-error"),  # two payloads back to back
            (first + second[4:], "frame-decode-error"),  # two records behind one callsite id
            # the multi-chunk container: its magic is no callsite's id
            (serialize_cdc_chunks(archive.chunks(0)[:2]), "unknown-callsite"),
            (first + b"\x00", "frame-decode-error"),
        ):
            open(rank_path(d), "wb").write(ARCHIVE_MAGIC + framed(raw_deflate(payload)))
            _, report = load_archive(d, mode="salvage")
            assert report.ranks[0].failure == failure
            assert report.ranks[0].frames_kept == 0

    @pytest.mark.parametrize(
        "damage", ["zlib-wrapped", "trailing-bytes", "cut-stream", "two-streams", "empty"]
    )
    def test_crc_valid_body_that_is_not_one_deflate_stream(
        self, archive, tmp_path, damage
    ):
        """The CRC covers whatever was written: a body that is not exactly
        one complete raw-deflate stream was written wrong, and is a decode
        error at that frame — the frames before it are kept."""
        d = self.saved(archive, tmp_path)
        first, second = map(frame_bytes, archive.chunks(0)[:2])
        raw = encode_frame_payload(archive.chunks(0)[1])
        body = {
            "zlib-wrapped": zlib.compress(raw),  # what version 2 stored
            "trailing-bytes": raw_deflate(raw) + b"\x00",
            "cut-stream": raw_deflate(raw)[:-1],
            "two-streams": raw_deflate(raw) * 2,
            "empty": b"",
        }[damage]
        assert framed(raw_deflate(raw)) == second  # the helper builds real frames
        open(rank_path(d), "wb").write(ARCHIVE_MAGIC + first + framed(body))
        with pytest.raises(ArchiveCorruptionError, match="frame-decode-error") as info:
            load_archive(d, mode="strict")
        assert info.value.frame_index == 1
        recovered, report = load_archive(d, mode="salvage")
        assert report.ranks[0].failure == "frame-decode-error"
        assert recovered.chunks(0) == archive.chunks(0)[:1]

    @pytest.mark.parametrize(
        "header",
        [
            b"\x80\x80\x80\x80\x80\x01",  # over-long: six bytes
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f",  # overflows any length
            b"\xff\xff\xff\xff\x7f",  # 2**35 - 1: past any u32, past EOF
            b"\x7f",  # length past EOF
            b"\x80",  # cut inside the length
            b"\x05\x01\x02",  # cut inside the CRC
        ],
    )
    def test_bad_frame_length_is_a_truncated_tail(self, archive, tmp_path, header):
        d = self.saved(archive, tmp_path)
        first = frame_bytes(archive.chunks(0)[0])
        open(rank_path(d), "wb").write(ARCHIVE_MAGIC + first + header + b"\x00" * 3)
        with pytest.raises(ArchiveCorruptionError, match="truncated-tail") as info:
            load_archive(d, mode="strict")
        assert info.value.frame_index == 1
        recovered, report = load_archive(d, mode="salvage")
        assert report.ranks[0].failure == "truncated-tail"
        assert report.ranks[0].bytes_kept == len(ARCHIVE_MAGIC) + len(first)
        assert recovered.chunks(0) == archive.chunks(0)[:1]

    def test_report_render_mentions_damage(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        data = open(rank_path(d), "rb").read()
        open(rank_path(d), "wb").write(data[:-1])
        _, report = load_archive(d, mode="salvage")
        text = report.render()
        assert "rank 0" in text and "truncated-tail" in text
        assert not report.clean

    def test_clean_report_render(self, archive, tmp_path):
        d = self.saved(archive, tmp_path)
        _, report = load_archive(d, mode="salvage")
        assert report.clean
        assert "clean" in report.render()


class TestHostileDirectories:
    """Bytes a directory merely *holds* size nothing: a frame inflates to at
    most the frame-payload cap, and a file name does not set the rank count
    (ROADMAP item 6)."""

    def measured(self, directory, mode):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            outcome = load_archive(directory, mode=mode)
        except RecordFormatError as exc:
            outcome = exc
        finally:
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert elapsed < 1.0, elapsed
        return outcome, peak

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    def test_deflate_bomb_inflates_no_further_than_the_cap(self, archive, tmp_path, mode):
        """64 MiB of zeros deflate to a CRC-valid 64 KiB frame: it is a
        decode error at the cap, not 64 MiB of payload to parse."""
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
        megabyte = bytes(1 << 20)
        body = b"".join(deflate.compress(megabyte) for _ in range(64)) + deflate.flush()
        assert len(body) < 80 * 1024 and 64 << 20 > 3 * MAX_PAYLOAD_BYTES
        first = frame_bytes(archive.chunks(0)[0])
        open(rank_path(d), "wb").write(ARCHIVE_MAGIC + first + framed(body))
        outcome, peak = self.measured(d, mode)
        # zlib grows its output by doubling, then copies it out once
        assert peak < 2 * MAX_PAYLOAD_BYTES + (1 << 20), f"{peak:,} B allocated"
        if mode == "strict":
            assert isinstance(outcome, ArchiveCorruptionError)
            assert "frame-decode-error" in str(outcome) and outcome.frame_index == 1
        else:
            recovered, report = outcome
            assert report.ranks[0].failure == "frame-decode-error"
            assert "under the cap" in report.ranks[0].detail
            assert recovered.chunks(0) == archive.chunks(0)[:1]

    def test_a_frame_is_stored_raw_exactly_when_deflate_would_grow_it(self, archive):
        """The body is whichever is shorter, the raw deflate stream or the
        payload itself (a tie deflates); the length's low bit says which, and
        the CRC covers the body as stored."""
        big = chunk([ReceiveEvent(r % 3, 2 * r) for r in range(300)], "a-long-callsite")
        for c in [*archive.chunks(0), *archive.chunks(1), big]:
            payload = encode_frame_payload(c)
            deflated = raw_deflate(payload)
            stored = len(deflated) > len(payload)
            expected = framed(payload, stored=True) if stored else framed(deflated)
            assert frame_bytes(c) == expected
        small = [*archive.chunks(0), *archive.chunks(1)]
        assert any(frame_bytes(c)[0] & 1 for c in small)  # deflate grows a few-byte payload
        assert not frame_bytes(big)[0] & 1

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    @pytest.mark.parametrize("body", ["deflate-stream", "two-payloads", "empty", "over-the-cap"])
    def test_a_stored_body_is_exactly_one_payload_under_the_cap(
        self, archive, tmp_path, mode, body, monkeypatch
    ):
        """A stored (raw) body is parsed as it is: a deflate stream flagged
        raw (whose first four bytes name no callsite), two payloads or none
        are refused with the frames before kept, and a stored body past the
        payload cap is refused before it is parsed — in both reading modes."""
        import repro.replay.durable_store as durable_store

        d = str(tmp_path / "rec")
        save_archive(archive, d)
        kept, first, second = archive.chunks(0)[1], *archive.chunks(0)[::2]
        first, second = encode_frame_payload(first), encode_frame_payload(second)
        stored = {
            "deflate-stream": raw_deflate(second),
            "two-payloads": second + first,
            "empty": b"",
            "over-the-cap": second,
        }[body]
        open(rank_path(d), "wb").write(
            ARCHIVE_MAGIC + frame_bytes(kept) + framed(stored, stored=True)
        )
        if body == "over-the-cap":  # the kept frame's payload is under it
            assert len(encode_frame_payload(kept)) < len(second)
            monkeypatch.setattr(durable_store, "MAX_PAYLOAD_BYTES", len(second) - 1)
        outcome, _ = self.measured(d, mode)
        failure = "unknown-callsite" if body == "deflate-stream" else "frame-decode-error"
        if mode == "strict":
            assert isinstance(outcome, ArchiveCorruptionError)
            assert failure in str(outcome) and outcome.frame_index == 1
        else:
            recovered, report = outcome
            assert report.ranks[0].failure == failure
            assert recovered.chunks(0) == [kept]
            if body == "over-the-cap":
                assert "over the payload cap" in report.ranks[0].detail

    def test_a_payload_over_the_cap_is_not_written(self, monkeypatch):
        import repro.replay.durable_store as durable_store

        monkeypatch.setattr(durable_store, "MAX_PAYLOAD_BYTES", 8)
        with pytest.raises(RecordFormatError, match="over the cap"):
            frame_bytes(chunk([ReceiveEvent(1, 1)], "a-long-callsite-name"))

    def test_one_file_name_does_not_set_the_rank_count(self, archive, tmp_path):
        """``rank-99999999.cdc`` in a manifest-less directory used to cost
        10**8 per-rank reports; it is refused, typed, at once."""
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        os.remove(os.path.join(d, "MANIFEST"))
        open(os.path.join(d, rank_filename(99_999_999)), "wb").close()
        outcome, peak = self.measured(d, "salvage")
        assert isinstance(outcome, RecordFormatError) and "too sparse" in str(outcome)
        assert peak < 1 << 20
        with pytest.raises(RecordFormatError, match="no MANIFEST"):
            load_archive(d, mode="strict")
        with pytest.raises(RecordFormatError, match="too sparse"):
            open_run(d)

    def test_a_few_absent_rank_files_are_reported(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        os.remove(os.path.join(d, "MANIFEST"))
        os.remove(rank_path(d, 1))
        highest = MAX_ABSENT_RANKS + 1  # ranks 0 and highest present: the rest absent
        os.rename(rank_path(d, 2), rank_path(d, highest))
        (recovered, report), _ = self.measured(d, "salvage")
        assert recovered.nprocs == highest + 1 == len(report.ranks)
        assert recovered.chunks(0) == labelled(archive.chunks(0))
        missing = [r for r, rec in report.ranks.items() if rec.failure == "missing-file"]
        assert missing == list(range(1, highest))
        os.rename(rank_path(d, highest), rank_path(d, highest + 1))
        assert isinstance(self.measured(d, "salvage")[0], RecordFormatError)


class TestCallsiteIds:
    """A frame names its callsite by the CRC-32 of the name; the manifest
    holds each name once. Two names with one id are refused before anything
    is written, and a directory without its manifest labels chunks by id."""

    #: two callsite names with one CRC-32
    TWINS = ("cs:29685295", "cs:32060020")

    def twins_archive(self):
        a = RecordArchive(nprocs=2, meta={"workload": "unit"})
        a.append(0, chunk([ReceiveEvent(1, 1)], self.TWINS[0]))
        a.append(1, chunk([ReceiveEvent(0, 2)], self.TWINS[1]))
        return a

    def assert_names_both(self, info):
        assert all(name in str(info.value) for name in self.TWINS)
        assert "0x059ce680" in str(info.value)

    def test_the_twins_share_an_id(self):
        assert callsite_id(self.TWINS[0]) == callsite_id(self.TWINS[1]) == 0x059CE680
        assert callsite_label(0x059CE680) == "#059ce680"

    def test_a_frame_opens_with_its_callsite_id(self, archive):
        for c in archive.chunks(0):
            assert encode_frame_payload(c)[:4] == struct.pack("<I", zlib.crc32(c.callsite.encode()))

    def test_the_writer_refuses_the_second_name_before_writing_it(self, tmp_path):
        d = str(tmp_path / "inc")
        first, second = self.twins_archive().iter_all()
        writer = DurableArchiveWriter(d, 2, fsync=False)
        writer.append(*first)
        with pytest.raises(RecordFormatError) as info:
            writer.append(*second)
        self.assert_names_both(info)
        assert writer.frames == [1, 0]
        assert open(rank_path(d, 1), "rb").read() == ARCHIVE_MAGIC
        writer.abort()
        assert not os.path.exists(os.path.join(d, "MANIFEST"))

    def test_save_refuses_before_writing_any_file(self, tmp_path):
        d = tmp_path / "saved"
        with pytest.raises(RecordFormatError) as info:
            save_archive(self.twins_archive(), str(d))
        self.assert_names_both(info)
        assert not d.exists()

    def test_a_record_with_both_callsites_fails_typed(self, tmp_path):
        """End to end: a program that calls both twins cannot be recorded to a
        store, and the directory it leaves has no manifest."""
        from repro.replay import RecordSession

        def program(ctx):
            peer = 1 - ctx.rank
            for callsite in self.TWINS:
                ctx.isend(peer, 0)
                yield ctx.wait(ctx.irecv(source=peer), callsite=callsite)

        d = str(tmp_path / "rec")
        with pytest.raises(RecordFormatError) as info:
            RecordSession(program, nprocs=2, store_dir=d, store_fsync=False).run()
        self.assert_names_both(info)
        assert not os.path.exists(os.path.join(d, "MANIFEST"))
        in_memory = RecordSession(program, nprocs=2).run().archive
        with pytest.raises(RecordFormatError):
            save_archive(in_memory, str(tmp_path / "saved"))
        assert not os.path.exists(tmp_path / "saved")

    def test_without_the_manifest_chunks_are_labelled_by_id(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        os.remove(os.path.join(d, "MANIFEST"))
        recovered, report = load_archive(d, mode="salvage")
        for rank in range(archive.nprocs):
            assert recovered.chunks(rank) == labelled(archive.chunks(rank))
        assert "labelled by id" in report.render()


class TestRetries:
    def make_flaky_opener(self, failures):
        """First ``failures`` writes raise transient EIO."""
        state = {"remaining": failures}

        class Flaky:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                if state["remaining"] > 0:
                    state["remaining"] -= 1
                    raise OSError(errno.EIO, "flaky device")
                return self._fh.write(data)

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def opener(path, mode="rb", **kw):
            fh = open(path, mode, **kw)
            return Flaky(fh) if "w" in mode else fh

        return opener, state

    def test_transient_errors_are_retried(self, archive, tmp_path):
        d = str(tmp_path / "flaky")
        opener, state = self.make_flaky_opener(failures=2)
        retry = RetryPolicy(attempts=4, base_delay=0.0)
        save_archive(archive, d, opener=opener, retry=retry)
        assert state["remaining"] == 0
        loaded, report = load_archive(d)
        assert report.clean
        assert loaded.chunks_by_rank == archive.chunks_by_rank

    def test_exhausted_retries_raise_the_oserror(self, archive, tmp_path):
        d = str(tmp_path / "dead")
        opener, _ = self.make_flaky_opener(failures=100)
        retry = RetryPolicy(attempts=3, base_delay=0.0)
        with pytest.raises(OSError):
            save_archive(archive, d, opener=opener, retry=retry)

    def test_non_transient_errors_not_retried(self, archive, tmp_path):
        calls = {"n": 0}

        def opener(path, mode="rb", **kw):
            calls["n"] += 1
            raise OSError(errno.EACCES, "permission denied")

        with pytest.raises(OSError):
            save_archive(
                archive,
                str(tmp_path / "denied"),
                opener=opener,
                retry=RetryPolicy(attempts=5, base_delay=0.0),
            )
        assert calls["n"] == 1

    def test_retry_rewinds_partial_writes(self, archive, tmp_path):
        """A write that fails halfway must not leave stray bytes behind."""
        state = {"armed": True}

        class HalfWriter:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                if state["armed"] and len(data) > 4:
                    state["armed"] = False
                    self._fh.write(data[: len(data) // 2])
                    raise OSError(errno.EIO, "died mid-write")
                return self._fh.write(data)

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def opener(path, mode="rb", **kw):
            fh = open(path, mode, **kw)
            return HalfWriter(fh) if "w" in mode else fh

        d = str(tmp_path / "halfway")
        with DurableArchiveWriter(
            d, 1, opener=opener, retry=RetryPolicy(attempts=3, base_delay=0.0)
        ) as writer:
            for c in archive.chunks(0):
                writer.append(0, c)
            writer.close({"workload": "unit"})
        loaded, report = load_archive(d)
        assert report.clean
        assert loaded.chunks(0) == archive.chunks(0)


class TestRetryPolicy:
    def test_backoff_doubles_up_to_the_cap(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.25)
        assert policy.delay(0) == 0.01
        assert policy.delay(1) == 0.02
        assert policy.delay(10) == 0.25


class TestManifestNprocsFlip:
    def test_nprocs_flip_contradicts_frame_table(self, archive, tmp_path):
        d = str(tmp_path / "rec")
        save_archive(archive, d)
        path = os.path.join(d, "MANIFEST")
        raw = open(path, "rb").read()
        i = raw.index(b'"nprocs":3') + len(b'"nprocs":')
        flipped = raw[:i] + bytes([raw[i] ^ 0x02]) + raw[i + 1 :]
        open(path, "wb").write(flipped)
        with pytest.raises(RecordFormatError):
            load_archive(d, mode="strict")
