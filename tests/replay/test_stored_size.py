"""An archive has one size: the bytes of its rank files and names table.

``RecordArchive.rank_bytes(r)`` is the length of ``rank-NNNNN.cdc`` —
magic plus one framed payload per chunk (a one- or two-byte varint of the
body's length and a stored-raw bit, a CRC-32, a raw deflate stream or,
where deflate would grow it, the payload itself) — and
``RecordArchive.total_bytes()`` adds, once, the names table the manifest
stores (``"callsites":[...],``: each callsite's name, which a frame names by
its 4-byte id). That holds for an archive that was just recorded to a
store, loaded from one, or never stored at all, and every reader of "how
big is this record" (``record.chunk`` markers, ``RunStats``, the ledger,
``repro record|inspect|stats``) reports that number without deflating
anything a second time.
"""

import json
import os
import re
import zlib

import pytest

from repro.analysis import human_bytes
from repro.cli import main
from repro.core.varint import uvarint_size
from repro.replay.durable_store import (
    ARCHIVE_MAGIC,
    callsite_table,
    load_archive,
    rank_filename,
    save_archive,
)
from repro.replay.session import RecordSession
from repro.workloads import make_workload

#: behind a frame's varint length: the CRC-32 of its body
FRAME_CRC = 4

#: (workload, nprocs, params) — the benchmark's four shapes, scaled down:
#: poll-dominated, hidden-deterministic, receive-dense, and few ranks with
#: streams long enough to fill 1024-event chunks.
CONFIGS = {
    "mcb": ("mcb", 8, {"particles_per_rank": 20}),
    "jacobi": ("jacobi", 8, {"iterations": 6}),
    "unstructured": ("unstructured", 8, {"vertices": 48, "iterations": 2}),
    "mcb-long-chunks": ("mcb", 4, {"particles_per_rank": 600}),
}


@pytest.fixture
def deflates(monkeypatch):
    """Every deflate stream opened while the fixture is live."""
    calls = []
    real = zlib.compressobj

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zlib, "compressobj", counted)
    return calls


def record(name, **kwargs):
    workload, nprocs, params = CONFIGS[name]
    program, _ = make_workload(workload, nprocs, **params)
    return RecordSession(
        program, nprocs=nprocs, network_seed=1, store_fsync=False, **kwargs
    ).run()


def file_sizes(directory, nprocs):
    return [
        os.path.getsize(os.path.join(directory, rank_filename(r)))
        for r in range(nprocs)
    ]


def table_share(directory):
    """Bytes the names table takes in the directory's MANIFEST: what the
    manifest would lose without its ``callsites`` key."""
    with open(os.path.join(directory, "MANIFEST"), "rb") as fh:
        manifest = fh.read()
    without = dict(json.loads(manifest))
    without.pop("callsites", None)
    rest = json.dumps(without, sort_keys=True, separators=(",", ":")) + "\n"
    return len(manifest) - len(rest.encode("utf-8"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_durable_record_is_sized_as_its_files(name, tmp_path, deflates):
    directory = str(tmp_path / "rec")
    result = record(name, store_dir=directory, telemetry=True)
    archive = result.archive
    chunks = sum(len(archive.chunks(r)) for r in range(archive.nprocs))
    assert chunks > 0
    # one deflate per flushed chunk — the frame the store wrote — and none
    # for the marker, RunStats, or any size asked for afterwards
    sizes = [archive.rank_bytes(r) for r in range(archive.nprocs)]
    assert len(deflates) == chunks

    assert sizes == file_sizes(directory, archive.nprocs)
    manifest = os.path.getsize(os.path.join(directory, "MANIFEST"))
    on_disk = sum(
        os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory)
    )
    table = table_share(directory)
    assert table == len(archive.callsite_table()) > 0
    assert archive.total_bytes() + manifest - table == on_disk

    markers = [e.attrs for e in result.registry.events if e.name == "record.chunk"]
    assert len(markers) == chunks
    assert (
        sum(m["stored_bytes"] + uvarint_size(m["stored_bytes"] << 1) for m in markers)
        + FRAME_CRC * chunks
        + len(ARCHIVE_MAGIC) * archive.nprocs
        + table
        == archive.total_bytes()
    )
    assert result.run_stats.stored_bytes == archive.total_bytes()
    if name == "mcb-long-chunks":
        assert max(c.num_events for _, c in archive.iter_all()) == 1024

    # the loader hands the frame lengths over: same sizes, nothing deflated
    del deflates[:]
    loaded, report = load_archive(directory)
    assert report.clean
    assert [loaded.rank_bytes(r) for r in range(loaded.nprocs)] == sizes
    assert loaded.total_bytes() == archive.total_bytes()
    assert loaded.total_payload_bytes() == archive.total_payload_bytes()
    assert deflates == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_in_memory_record_is_sized_as_save_then_writes(name, tmp_path, deflates):
    result = record(name, telemetry=True)  # no store: the archive deflates
    archive = result.archive
    chunks = sum(len(archive.chunks(r)) for r in range(archive.nprocs))
    sizes = [archive.rank_bytes(r) for r in range(archive.nprocs)]
    payload = archive.total_payload_bytes()
    assert len(deflates) == chunks  # once per flushed chunk, for the marker

    untouched = record(name).archive  # telemetry off: sized on first request
    assert [untouched.rank_bytes(r) for r in range(untouched.nprocs)] == sizes
    assert untouched.total_payload_bytes() == payload

    directory = str(tmp_path / "saved")
    save_archive(archive, directory, fsync=False)
    assert sizes == file_sizes(directory, archive.nprocs)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_total_bytes_is_the_rank_files_and_the_tables_share(name, tmp_path):
    """Recorded to a store, loaded from it, or never stored: ``total_bytes``
    is the rank files plus the names table's share of the MANIFEST."""
    recorded_dir, saved_dir = str(tmp_path / "rec"), str(tmp_path / "saved")
    recorded = record(name, store_dir=recorded_dir).archive
    loaded, _ = load_archive(recorded_dir)
    never_stored = record(name).archive
    save_archive(never_stored, saved_dir, fsync=False)
    for archive, directory in (
        (recorded, recorded_dir), (loaded, recorded_dir), (never_stored, saved_dir)
    ):
        files = sum(file_sizes(directory, archive.nprocs))
        assert archive.total_bytes() == files + table_share(directory)
    names = sorted({c.callsite for _, c in recorded.iter_all()})
    assert table_share(recorded_dir) == len(callsite_table(names)) == len(
        json.dumps({"callsites": names}, separators=(",", ":"))
    ) - 1  # the braces off, the comma behind it on


def test_cli_record_inspect_and_stats_print_the_files_size(tmp_path, capsys):
    directory = str(tmp_path / "rec")
    assert main(
        ["record", "--workload", "mcb", "--nprocs", "8", "--network-seed", "1",
         "-p", "particles_per_rank=20", "--out", directory]
    ) == 0
    recorded = capsys.readouterr().out
    size = sum(file_sizes(directory, 8)) + table_share(directory)
    events = int(re.search(r"recorded ([\d,]+) receive", recorded)[1].replace(",", ""))
    assert f"({human_bytes(size)}, {size / events:.3f} bytes/event)" in recorded

    assert main(["inspect", "--record", directory]) == 0
    inspected = capsys.readouterr().out
    assert re.search(rf"stored bytes\s+\|?\s*{re.escape(human_bytes(size))}", inspected)
    assert f"{size / events:.3f}" in inspected

    assert main(["stats", directory]) == 0
    stats = capsys.readouterr().out
    assert re.search(rf"stored \(gzip\)\s+\|?\s*{re.escape(human_bytes(size))}", stats)


#: the stored bytes of two small records (network seed 1) — rank files and
#: names table — exact: a byte gate on the archive layout. Version 4 stored
#: 925 and 326 B; version 5 878 and 302 B, an unstructured halo round's
#: senders as Lehmer words and a frame whose deflate stream would be longer
#: than its payload as the payload itself; version 6 names a frame's
#: callsite by a 4-byte id and each name once, in the manifest.
STORED_BYTES = {"mcb": 795, "unstructured": 280}


@pytest.mark.parametrize("name", sorted(STORED_BYTES))
def test_a_small_record_stores_exactly_its_pinned_bytes(name, tmp_path):
    directory = str(tmp_path / "rec")
    archive = record(name, store_dir=directory).archive
    files = sum(file_sizes(directory, archive.nprocs))
    assert files + table_share(directory) == archive.total_bytes()
    assert archive.total_bytes() == STORED_BYTES[name]
