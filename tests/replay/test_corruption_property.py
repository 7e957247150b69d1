"""Property: one flipped byte anywhere in a saved archive is never silent.

For an arbitrary single-byte corruption at an arbitrary offset of an
arbitrary file in a saved archive directory, a strict load must either

* succeed with chunks identical to the original (the byte landed in slack:
  manifest metadata, JSON whitespace, ...), or
* raise a :class:`~repro.errors.DecodingError` subclass.

It must never return different chunks, and it must never leak a raw
``zlib.error`` / ``KeyError`` / ``struct.error``.

The archive holds both chunk layouts, and a second pair of properties goes
after the frame header alone — a varint length, then a CRC-32: arbitrary
bytes in its place, or a length rewritten to any varint at all (over-long,
overflowing, past EOF), leave a typed error or an exact prefix, in time and
memory bounded by the file's own length.
"""

import os
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ReceiveEvent
from tests.core.test_pipeline import encode_chunk
from repro.core.record_table import RecordTable
from repro.errors import DecodingError
from repro.core.varint import encode_uvarint
from repro.replay.durable_store import (
    ARCHIVE_MAGIC,
    RecordArchive,
    frame_bytes,
    load_archive,
    save_archive,
)


def chunk(events, callsite="cs", assist=False):
    return encode_chunk(
        RecordTable(callsite, tuple(events), (), ()), replay_assist=assist
    )


def build_archive() -> RecordArchive:
    a = RecordArchive(nprocs=2, meta={"workload": "prop", "seed": 3})
    a.append(0, chunk([ReceiveEvent(1, 1), ReceiveEvent(1, 4)], "a"))
    a.append(0, chunk([ReceiveEvent(1, 6)], "b"))
    a.append(1, chunk([ReceiveEvent(0, 2), ReceiveEvent(0, 5)], "a"))
    # the assist layout, once with a sender observed out of clock order
    a.append(0, chunk([ReceiveEvent(1, 9), ReceiveEvent(1, 8)], "a", assist=True))
    a.append(1, chunk([ReceiveEvent(0, 7), ReceiveEvent(0, 11)], "a", assist=True))
    return a


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    archive = build_archive()
    d = str(tmp_path_factory.mktemp("prop") / "rec")
    save_archive(archive, d)
    files = {
        name: open(os.path.join(d, name), "rb").read()
        for name in sorted(os.listdir(d))
    }
    return archive, d, files


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_single_byte_flip_is_never_silent(saved, data):
    archive, d, files = saved
    try:
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        original = files[name]
        offset = data.draw(
            st.integers(0, max(0, len(original) - 1)), label="offset"
        )
        bit = data.draw(st.integers(0, 7), label="bit")
        corrupted = bytearray(original)
        corrupted[offset] ^= 1 << bit
        path = os.path.join(d, name)
        with open(path, "wb") as fh:
            fh.write(bytes(corrupted))
        try:
            loaded, report = load_archive(d, mode="strict")
        except DecodingError:
            return  # detected: the acceptable failure mode
        # tolerated: the flip must have been semantically invisible
        assert loaded.chunks_by_rank == archive.chunks_by_rank
        assert report.clean
    finally:
        # restore every file for the next example
        for fname, blob in files.items():
            with open(os.path.join(d, fname), "wb") as fh:
                fh.write(blob)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_salvage_of_flipped_archive_is_a_prefix(saved, data):
    """Salvage after a flip keeps only an exact chunk prefix per rank."""
    archive, d, files = saved
    try:
        name = data.draw(
            st.sampled_from([n for n in sorted(files) if n.startswith("rank-")]),
            label="file",
        )
        original = files[name]
        offset = data.draw(st.integers(0, len(original) - 1), label="offset")
        corrupted = bytearray(original)
        corrupted[offset] ^= 0xFF
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(bytes(corrupted))
        try:
            recovered, _ = load_archive(d, mode="salvage")
        except DecodingError:
            return  # manifest-level damage may still refuse outright
        for rank in range(archive.nprocs):
            ref = archive.chunks(rank)
            got = recovered.chunks(rank)
            assert got == ref[: len(got)], f"rank {rank}"
    finally:
        for fname, blob in files.items():
            with open(os.path.join(d, fname), "wb") as fh:
                fh.write(blob)


def _uvarint(value: int) -> bytes:
    out = bytearray()
    encode_uvarint(value, out)
    return bytes(out)


def frame_starts(archive, rank):
    """Offset of each frame of ``rank``'s file."""
    starts = [len(ARCHIVE_MAGIC)]
    for c in archive.chunks(rank):
        starts.append(starts[-1] + len(frame_bytes(c)))
    return starts[:-1]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_hostile_frame_header_is_typed_bounded_and_keeps_the_prefix(saved, data):
    """One frame's header — or just its length varint — replaced: a typed
    error in strict mode, in salvage the frames before it (and, when the
    forged header happens to frame valid bytes, nothing that was not
    saved), never more than a small multiple of the file in memory."""
    archive, d, files = saved
    rank = data.draw(st.integers(0, archive.nprocs - 1), label="rank")
    name = f"rank-{rank:05d}.cdc"
    original = files[name]
    starts = frame_starts(archive, rank)
    k = data.draw(st.integers(0, len(starts) - 1), label="frame")
    length_bytes = 1  # every body here is shorter than 128 bytes
    if data.draw(st.booleans(), label="length only"):
        forged = data.draw(
            st.sampled_from([
                b"\x80\x80\x80\x80\x80\x01",  # over-long
                b"\xff" * 9 + b"\x7f",  # overflows any length
                b"\xff\xff\xff\xff\x0f",  # 2**32 - 1
                b"\xff\x7f",  # past EOF
                b"\x80",  # cut inside the varint
                b"\x00",
            ])
            | st.integers(0, 2**40).map(_uvarint),
            label="length",
        )
        header_end = starts[k] + length_bytes
    else:
        forged = data.draw(st.binary(max_size=12), label="header")
        header_end = starts[k] + length_bytes + 4
    corrupted = original[: starts[k]] + forged + original[header_end:]
    try:
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(corrupted)
        for mode in ("strict", "salvage"):
            tracemalloc.start()
            started = time.perf_counter()
            try:
                loaded, report = load_archive(d, mode=mode)
            except DecodingError:
                loaded = None
            finally:
                elapsed = time.perf_counter() - started
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert elapsed < 1.0
            assert peak <= 64 * 1024 + 400 * sum(map(len, files.values())), peak
            if loaded is None:
                assert mode == "strict" or corrupted == original
                continue
            got, ref = loaded.chunks(rank), archive.chunks(rank)
            assert got == ref[: len(got)]
            if mode == "strict":  # accepted whole: the forgery was the original
                assert got == ref
            elif corrupted != original and len(got) < len(ref):
                assert len(got) >= k and report.ranks[rank].failure in (
                    "truncated-tail", "crc-mismatch", "frame-decode-error",
                )
    finally:
        for fname, blob in files.items():
            with open(os.path.join(d, fname), "wb") as fh:
                fh.write(blob)
