"""A MANIFEST is outside input: hostile ones cost nothing and fail typed.

Whatever bytes sit in ``MANIFEST``, loading the directory — strict or
salvage — either succeeds or raises a
:class:`~repro.errors.RecordFormatError` (never a raw ``OverflowError`` /
``RecursionError`` / ``TypeError``), within a second, allocating no more
than a small multiple of the directory's own size: nothing sized by a
number the manifest merely *claims* is ever built.
"""

import json
import os
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ReceiveEvent
from tests.core.test_pipeline import encode_chunk
from repro.core.record_table import RecordTable
from repro.errors import ArchiveCorruptionError, RecordFormatError
from repro.replay.durable_store import ARCHIVE_VERSION, RecordArchive, load_archive, save_archive

MODES = ("strict", "salvage")
DEADLINE_S = 1.0


def chunk(events, callsite="cs"):
    return encode_chunk(RecordTable(callsite, tuple(events), (), ()))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(archive, directory, the valid manifest as a dict)."""
    archive = RecordArchive(nprocs=3, meta={"workload": "hostile", "seed": 3})
    archive.append(0, chunk([ReceiveEvent(1, 1), ReceiveEvent(1, 4)], "a"))
    archive.append(0, chunk([ReceiveEvent(2, 6)], "b"))
    archive.append(1, chunk([ReceiveEvent(0, 2)], "a"))
    d = str(tmp_path_factory.mktemp("hostile") / "rec")
    save_archive(archive, d, fsync=False)
    with open(os.path.join(d, "MANIFEST"), encoding="utf-8") as fh:
        return archive, d, json.load(fh)


def manifest_bytes(**overrides):
    manifest = {
        "format": "cdc-archive",
        "version": ARCHIVE_VERSION,
        "nprocs": 3,
        "frames": [2, 1, 0],
        "callsites": ["a", "b"],
        "meta": {},
    }
    manifest.update(overrides)
    # json.dumps writes inf as Infinity; the hostile spelling is 1e400
    return json.dumps(manifest).replace("Infinity", "1e400").encode()


#: name -> MANIFEST bytes that must be refused (the first five escaped as
#: OverflowError x2 / RecursionError / a silent nprocs=1 / 2.1 GB before
#: this suite existed; the sixth took salvage mode 43 s and 1.0 GB).
HOSTILE = {
    "nprocs-overflows-float": manifest_bytes(nprocs=float("inf")),
    "frame-count-overflows-float": manifest_bytes(frames=[float("inf"), 1, 0]),
    "hundred-thousand-brackets": b"[" * 100_000,
    "nprocs-fractional": manifest_bytes(nprocs=1.9),
    "nprocs-30M-one-frame-entry": manifest_bytes(nprocs=30_000_000, frames=[2]),
    "no-layout-3M-ranks": b'{"nprocs": 3000000, "meta": {}}',
    "no-layout-honest": b'{"nprocs": 3, "meta": {}}',
    "nprocs-negative": manifest_bytes(nprocs=-1, frames=[]),
    "nprocs-bool": manifest_bytes(nprocs=True, frames=[2]),
    "nprocs-string": manifest_bytes(nprocs="3"),
    "nprocs-null": manifest_bytes(nprocs=None),
    "nprocs-missing": json.dumps(
        {"format": "cdc-archive", "version": ARCHIVE_VERSION, "frames": []}
    ).encode(),
    "nprocs-5000-digits": manifest_bytes().replace(b'"nprocs": 3', b'"nprocs": ' + b"9" * 5000),
    "frames-dict": manifest_bytes(frames={"0": 2, "1": 1, "2": 0}),  # version 3's shape
    "frames-missing": json.dumps(
        {"format": "cdc-archive", "version": ARCHIVE_VERSION, "nprocs": 3}
    ).encode(),
    "frames-null": manifest_bytes(frames=None),
    "frame-count-negative": manifest_bytes(frames=[-2, 1, 0]),
    "frame-count-bool": manifest_bytes(frames=[True, 1, 0]),
    "frame-count-fractional": manifest_bytes(frames=[2.0, 1, 0]),
    "frame-count-string": manifest_bytes(frames=["2", 1, 0]),
    "frame-count-nested": manifest_bytes(frames=[[2], 1, 0]),
    # a frame table keyed by rank is not a list, whatever its keys say
    "frame-rank-not-a-number": manifest_bytes(frames={"zero": 2, "1": 1, "2": 0}),
    "frame-rank-out-of-range": manifest_bytes(frames=[2, 1, 0, 0]),  # an entry for rank 3 of 3
    "frame-ranks-collapse": manifest_bytes(frames=[2, 1]),  # two entries for three ranks
    "meta-list": manifest_bytes(meta=[1, 2]),
    "version-string": manifest_bytes(version="5"),
    "version-2": manifest_bytes(version=2),
    "version-3": manifest_bytes(version=3),
    "version-3-as-written": manifest_bytes(version=3, frames={"0": 2, "1": 1, "2": 0}),
    "version-4": manifest_bytes(version=4),
    "version-5": manifest_bytes(version=5),  # the layout this one replaced
    "version-7": manifest_bytes(version=7),
    "format-other": manifest_bytes(format="cdc-archive-ng"),
    "top-level-list": b"[1, 2, 3]",
    "deep-meta": manifest_bytes().replace(b'"meta": {}', b'"meta": ' + b"[" * 50_000),
    "empty-file": b"",
    "not-utf8": b"\xff\xfe{}",
    # the names table: a list of distinct strings, one name per id, no more
    # names than frames
    "callsites-string": manifest_bytes(callsites="a"),
    "callsites-object": manifest_bytes(callsites={"a": 0}),
    "callsites-null": manifest_bytes(callsites=None),
    "callsites-number-in-list": manifest_bytes(callsites=["a", 7]),
    "callsites-nested-list": manifest_bytes(callsites=[["a"], "b"]),
    "callsites-repeated-name": manifest_bytes(callsites=["a", "b", "a"]),
    "callsites-one-id-two-names": manifest_bytes(callsites=["cs:29685295", "cs:32060020"]),
    "callsites-past-the-frames": manifest_bytes(callsites=["a", "b", "c", "d"]),
    "callsites-million-past-the-frames": manifest_bytes(callsites=[""] * 1_000_000),
}


def measured_load(directory, mode):
    """(outcome, seconds, peak traced bytes) of one load; the outcome is
    the ``(archive, report)`` pair or the ``RecordFormatError`` raised —
    any other exception propagates and fails the test."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        outcome = load_archive(directory, mode=mode)
    except RecordFormatError as exc:
        outcome = exc
    finally:
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return outcome, elapsed, peak


def allocation_bound(directory):
    size = sum(
        os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory)
    )
    return 8 * size + 128 * 1024


def with_manifest(directory, blob):
    with open(os.path.join(directory, "MANIFEST"), "wb") as fh:
        fh.write(blob)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_manifest_is_a_typed_error(saved, name, mode):
    _, d, valid = saved
    try:
        with_manifest(d, HOSTILE[name])
        outcome, elapsed, peak = measured_load(d, mode)
        assert isinstance(outcome, RecordFormatError), outcome
        assert "MANIFEST" in str(outcome)
        assert elapsed < DEADLINE_S
        assert peak <= allocation_bound(d), f"{peak:,} B allocated"
    finally:
        with_manifest(d, json.dumps(valid).encode())


# -- mutated valid manifests -----------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, 2, 3, 4, 10**9, 3 * 10**7, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4) | st.sampled_from(["0", "1", "2", "3"]),
                        inner, max_size=4),
    ),
    max_leaves=8,
)
KEY_PATHS = [
    ("format",), ("version",), ("nprocs",), ("frames",), ("meta",), ("callsites",),
    ("frames", 0), ("frames", 1), ("frames", 2), ("frames", 3),
    ("callsites", 0), ("callsites", 1), ("callsites", 2),
    ("meta", "workload"), ("extra",),
]


@st.composite
def mutated_manifests(draw, valid):
    """The valid manifest with 1-3 structural edits (a key set to an
    arbitrary JSON value, or deleted), then 0-2 byte edits of its text."""
    manifest = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(KEY_PATHS))
        target = manifest
        for parent in parents:
            target = target.get(parent) if isinstance(target, dict) else None
        if isinstance(target, list) and isinstance(key, int):
            # the frame or names table: drop an entry, set one, or append one
            if draw(st.booleans()) and key < len(target):
                del target[key]
            else:
                target[key:key + 1] = [draw(json_values)]
            continue
        if not isinstance(target, dict):
            continue
        if draw(st.booleans()) and key in target:
            del target[key]
        else:
            target[key] = draw(json_values)
    blob = bytearray(json.dumps(manifest).replace("Infinity", "1e400").encode())
    for _ in range(draw(st.integers(0, 2))):
        offset = draw(st.integers(0, max(0, len(blob) - 1)))
        edit = draw(st.sampled_from(["flip", "cut", "insert"]))
        if edit == "flip" and blob:
            blob[offset] ^= 1 << draw(st.integers(0, 7))
        elif edit == "cut":
            del blob[offset:]
        else:
            blob[offset:offset] = draw(st.binary(min_size=1, max_size=6))
    return bytes(blob)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_manifest_loads_or_fails_typed(saved, data):
    archive, d, valid = saved
    blob = data.draw(mutated_manifests(valid), label="MANIFEST")
    try:
        with_manifest(d, blob)
        for mode in MODES:
            outcome, elapsed, peak = measured_load(d, mode)
            assert elapsed < DEADLINE_S, mode
            assert peak <= allocation_bound(d), f"{mode}: {peak:,} B allocated"
            if isinstance(outcome, RecordFormatError):
                continue
            # accepted: the manifest was bounded by its own frame table,
            # and what loaded is a prefix of what was saved, rank by rank
            loaded, report = outcome
            assert len(report.ranks) == loaded.nprocs
            assert loaded.nprocs <= max(len(blob), 3)
            for rank in range(min(loaded.nprocs, archive.nprocs)):
                got = loaded.chunks(rank)
                assert got == archive.chunks(rank)[: len(got)], (mode, rank)
            if mode == "strict":
                assert report.clean
    finally:
        with_manifest(d, json.dumps(valid).encode())


# -- frames the names table does not name ----------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_a_frame_whose_callsite_the_table_lacks(saved, mode):
    """The table names "a" and "b"; with "b" renamed, rank 0's second frame
    names a callsite the table lacks: strict mode says which rank and frame,
    salvage keeps the frame before it and reports the kind."""
    _, d, valid = saved
    try:
        with_manifest(d, json.dumps(dict(valid, callsites=["a", "c"])).encode())
        if mode == "strict":
            with pytest.raises(ArchiveCorruptionError) as info:
                load_archive(d, mode=mode)
            assert (info.value.rank, info.value.frame_index) == (0, 1)
            assert "unknown-callsite" in str(info.value)
            return
        loaded, report = load_archive(d, mode=mode)
        assert report.ranks[0].failure == "unknown-callsite"
        assert [c.callsite for c in loaded.chunks(0)] == ["a"]
        assert [c.callsite for c in loaded.chunks(1)] == ["a"] and report.ranks[1].clean
    finally:
        with_manifest(d, json.dumps(valid).encode())
