"""Property: one flipped byte anywhere in a saved archive is never silent.

For an arbitrary single-byte corruption at an arbitrary offset of an
arbitrary file in a saved archive directory, a strict load must either

* succeed with chunks identical to the original (the byte landed in slack:
  manifest metadata, JSON whitespace, ...), or
* raise a :class:`~repro.errors.DecodingError` subclass.

It must never return different chunks, and it must never leak a raw
``zlib.error`` / ``KeyError`` / ``struct.error``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ReceiveEvent
from repro.core.pipeline import encode_chunk
from repro.core.record_table import RecordTable
from repro.errors import DecodingError
from repro.replay.chunk_store import RecordArchive
from repro.replay.durable_store import load_archive, save_archive


def chunk(events, callsite="cs"):
    return encode_chunk(RecordTable(callsite, tuple(events), (), ()))


def build_archive() -> RecordArchive:
    a = RecordArchive(nprocs=2, meta={"workload": "prop", "seed": 3})
    a.append(0, chunk([ReceiveEvent(1, 1), ReceiveEvent(1, 4)], "a"))
    a.append(0, chunk([ReceiveEvent(1, 6)], "b"))
    a.append(1, chunk([ReceiveEvent(0, 2), ReceiveEvent(0, 5)], "a"))
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
