"""A recorded run on storage: the archive, its framed files, and how to open it.

A :class:`RecordArchive` holds one CDC record per rank, mirroring the
paper's per-process record files on node-local storage (SSD/ramdisk):
chunks per ``(rank, callsite)`` in flush order. Records leave memory in
bounded chunks *during* the run (the paper's epoch lines, Section 3.5), so
storage must be able to lose a tail without losing the run.

**Rank file layout** (``rank-NNNNN.cdc``)::

    magic "CDCARC6\\n" (8 bytes)
    frame*                       appended as chunks flush
    frame := uvarint len(body) << 1 | stored (at most 5 bytes)
             u32 CRC32 of body (LE)
             body = raw deflate of encode_frame_payload(chunk) (callsite
                    id, record), a payload of at most MAX_PAYLOAD_BYTES — or,
                    with ``stored`` set, the payload itself, where deflate
                    would grow it

Each frame holds exactly one CDC chunk and is a function of that chunk
alone, so any valid frame prefix is an epoch-aligned chunk prefix: salvage
never has to split a chunk (DESIGN.md §5.9 on why frames stay stateless and
carry one checksum). The one-line manifest (written last, atomically) lists
the expected frame count per rank, letting the loader tell a clean short
record from a crash, and each callsite's name once (DESIGN.md §5.10).
This is the only layout — a manifest that does not declare it, or a rank
file without the magic, is an error in every mode — and an archive's size
(:meth:`RecordArchive.total_bytes`) is these files plus the manifest's
names table, whether it was just recorded, loaded, or never stored.

**Durability rules**

* frames are flushed (and by default fsync'd) as they complete;
* manifests — and rank files on the whole-archive :func:`save_archive`
  path — are written via tmp file + fsync + atomic rename;
* transient ``OSError`` s (EIO, EAGAIN, EINTR, EBUSY) are retried with
  bounded exponential backoff before giving up.

**Recovery** — in ``strict`` mode :func:`load_archive` raises
:class:`~repro.errors.ArchiveCorruptionError` (rank, frame index, epoch
context of the last good chunk) at the first integrity violation. In
``salvage`` mode it keeps the longest valid frame prefix per rank and
returns a :class:`RecoveryReport` saying exactly what was kept and what
was dropped.

**Opening a run** — sessions, analyses and the CLI all go through
:func:`open_run`.
"""

from __future__ import annotations

import errno
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Iterable, Iterator, Mapping

from repro.core.compression import ZLIB_LEVEL
from repro.core.formats import MAX_PAYLOAD_BYTES, callsite_id
from repro.core.formats import decode_frame_payload, encode_frame_payload
from repro.core.pipeline import CDCChunk
from repro.core.varint import decode_uvarint, encode_uvarint, uvarint_size
from repro.errors import ArchiveCorruptionError, RecordFormatError, UnknownCallsiteError
from repro.obs import get_registry, span

__all__ = [
    "ARCHIVE_MAGIC",
    "ARCHIVE_VERSION",
    "DurableArchiveWriter",
    "RankRecovery",
    "RecordArchive",
    "RecoveryReport",
    "RetryPolicy",
    "StoredRun",
    "bytes_per_event",
    "callsite_table",
    "frame_bytes",
    "load_archive",
    "open_run",
    "rank_filename",
    "save_archive",
    "summarize",
]

ARCHIVE_MAGIC = b"CDCARC6\n"
ARCHIVE_VERSION = 6
MANIFEST_NAME = "MANIFEST"

#: a frame's header: a varint of its body's length and a stored-raw bit (a
#: u32: at most five bytes), then the body's CRC32 (four bytes, little-endian).
_MAX_LENGTH_BYTES, _CRC_BYTES = 5, 4
#: a manifest-less directory may miss this many rank files below its highest
#: one: past that, a file name does not say how many ranks there were
MAX_ABSENT_RANKS = 64

Opener = Callable[..., IO[bytes]]


def rank_filename(rank: int) -> str:
    return f"rank-{rank:05d}.cdc"


# ---------------------------------------------------------------------------
# transient-error retries
# ---------------------------------------------------------------------------

#: errnos considered transient: worth retrying before declaring the flush dead.
RETRYABLE_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.EBUSY}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient storage errors.

    Retry ``attempt`` (0-based) waits ``base_delay * 2**attempt``, capped
    at ``max_delay``: the same schedule every run, so fault-injection
    tests stay reproducible.
    """

    attempts: int = 4
    base_delay: float = 0.01
    max_delay: float = 0.25

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * (2 ** attempt), self.max_delay)


def _retry_io(fn: Callable[[], object], policy: RetryPolicy):
    """Run ``fn``, retrying transient OSErrors per ``policy``.

    Non-transient OSErrors (ENOENT, EISDIR, ...) propagate immediately.
    """
    last: OSError | None = None
    for attempt in range(max(1, policy.attempts)):
        try:
            return fn()
        except OSError as exc:
            if exc.errno not in RETRYABLE_ERRNOS:
                raise
            last = exc
            registry = get_registry()
            if registry.enabled:
                registry.counter("store.io_retries").add()
            if attempt + 1 < max(1, policy.attempts):
                delay = policy.delay(attempt)
                if delay > 0:
                    if registry.enabled:
                        registry.counter("store.backoff_sleeps").add()
                        registry.histogram("store.backoff_us").observe(
                            int(delay * 1e6)
                        )
                    time.sleep(delay)
    assert last is not None
    raise last


# ---------------------------------------------------------------------------
# frames and the archive
# ---------------------------------------------------------------------------


def _encode_frame(chunk: CDCChunk) -> tuple[bytes, int, int]:
    """(frame, payload length, body length) for one chunk. The body is the
    payload's raw deflate stream — the frame's CRC already covers it — or the
    payload itself where deflate would grow it, flagged in the length's low bit."""
    raw = encode_frame_payload(chunk)
    if len(raw) > MAX_PAYLOAD_BYTES:
        raise RecordFormatError(f"frame payload of {len(raw)} bytes is over the cap")
    deflate = zlib.compressobj(ZLIB_LEVEL, zlib.DEFLATED, -15)
    body = deflate.compress(raw) + deflate.flush()
    stored = len(body) > len(raw)
    body = raw if stored else body
    header = bytearray()
    encode_uvarint(len(body) << 1 | stored, header)
    header += zlib.crc32(body).to_bytes(_CRC_BYTES, "little")
    return bytes(header) + body, len(raw), len(body)


def frame_bytes(chunk: CDCChunk) -> bytes:
    """One self-delimiting frame: header + one chunk's payload, deflated or stored."""
    return _encode_frame(chunk)[0]


def _enter_name(by_id: dict[int, str], name: str) -> None:
    """File ``name`` under its id; another name there already is refused:
    the archive could not tell the two apart."""
    cid = callsite_id(name)
    other = by_id.setdefault(cid, name)
    if other != name:
        raise RecordFormatError(
            f"callsites {other!r} and {name!r} share the id {cid:#010x}: "
            "an archive cannot hold both"
        )


def callsite_table(names: Iterable[str]) -> bytes:
    """The names table as it stands in the MANIFEST: ``"callsites":[...],``
    over the distinct names, sorted — nothing when there is none. Two names
    with one id are a :class:`~repro.errors.RecordFormatError` naming both."""
    by_id: dict[int, str] = {}
    for name in sorted(set(names)):
        _enter_name(by_id, name)
    table = json.dumps({"callsites": sorted(by_id.values())}, separators=(",", ":"))
    return table.encode("utf-8")[1:-1] + b"," if by_id else b""


@dataclass
class RecordArchive:
    """All ranks' CDC records for one recorded run."""

    nprocs: int
    #: rank -> chunks in global flush order (callsites interleaved).
    chunks_by_rank: dict[int, list[CDCChunk]] = field(default_factory=dict)
    #: metadata preserved for replay bookkeeping.
    meta: dict[str, object] = field(default_factory=dict)
    #: id(chunk) -> (chunk, payload bytes, body bytes) of its frame, from
    #: whoever built the frame (writer, loader) or the first request; per
    #: chunk object, so editing ``chunks_by_rank`` needs no invalidation.
    _frame_sizes: dict[int, tuple[CDCChunk, int, int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def append(self, rank: int, chunk: CDCChunk) -> None:
        if not 0 <= rank < self.nprocs:
            raise RecordFormatError(f"rank {rank} out of range")
        self.chunks_by_rank.setdefault(rank, []).append(chunk)

    def chunks(self, rank: int) -> list[CDCChunk]:
        return self.chunks_by_rank.get(rank, [])

    def chunks_by_callsite(self, rank: int) -> dict[str, list[CDCChunk]]:
        """Per-callsite chunk sequences (flush order preserved)."""
        out: dict[str, list[CDCChunk]] = {}
        for chunk in self.chunks(rank):
            out.setdefault(chunk.callsite, []).append(chunk)
        return out

    def iter_all(self) -> Iterator[tuple[int, CDCChunk]]:
        for rank in sorted(self.chunks_by_rank):
            for chunk in self.chunks_by_rank[rank]:
                yield rank, chunk

    # -- size accounting -----------------------------------------------------

    def note_frame(self, chunk: CDCChunk, payload_bytes: int, body_bytes: int) -> None:
        """Take the payload lengths of a frame just built for ``chunk``."""
        self._frame_sizes[id(chunk)] = (chunk, payload_bytes, body_bytes)

    def frame_sizes(self, chunk: CDCChunk) -> tuple[int, int]:
        """(payload, stored body) byte lengths of ``chunk``'s frame;
        a chunk nobody has reported is serialized and deflated here, once."""
        known = self._frame_sizes.get(id(chunk))
        if known is None or known[0] is not chunk:
            known = (chunk, *_encode_frame(chunk)[1:])
            self._frame_sizes[id(chunk)] = known
        return known[1:]

    def rank_bytes(self, rank: int) -> int:
        """Size of the rank's record file: magic plus one frame per chunk."""
        bodies = [self.frame_sizes(c)[1] for c in self.chunks(rank)]
        return len(ARCHIVE_MAGIC) + sum(uvarint_size(n << 1) + _CRC_BYTES + n for n in bodies)

    def rank_payload_bytes(self, rank: int) -> int:
        """Pre-deflate size of the rank's frame payloads (Figure 8 tables)."""
        return sum(self.frame_sizes(c)[0] for c in self.chunks(rank))

    def callsite_table(self) -> bytes:
        """:func:`callsite_table` of the archive's callsites."""
        return callsite_table(chunk.callsite for _, chunk in self.iter_all())

    def total_bytes(self) -> int:
        """Size of all rank files and of the manifest's names table — what
        the run left on storage, bar the rest of the manifest."""
        files = sum(self.rank_bytes(r) for r in range(self.nprocs))
        return files + len(self.callsite_table())

    def total_payload_bytes(self) -> int:
        return sum(self.rank_payload_bytes(r) for r in range(self.nprocs))

    def total_events(self) -> int:
        return sum(c.num_events for _, c in self.iter_all())

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str) -> None:
        """:func:`save_archive`: one ``rank-NNNNN.cdc`` per rank plus a
        manifest, which carries ``meta`` (JSON-serializable only) so a
        loaded archive knows how it was produced (workload, seeds, ...)."""
        save_archive(self, directory)

    @classmethod
    def load(cls, directory: str) -> "RecordArchive":
        """Strict :func:`load_archive`: any integrity violation raises a
        :class:`~repro.errors.RecordFormatError` subclass naming the rank
        and path (salvage mode is the way into a damaged archive)."""
        return load_archive(directory, mode="strict")[0]


def bytes_per_event(archive: RecordArchive) -> float:
    """Average storage bytes per receive event across the whole run."""
    events = archive.total_events()
    return archive.total_bytes() / events if events else 0.0


def summarize(archive: RecordArchive) -> Mapping[str, object]:
    """Human-oriented archive summary used by examples and reports."""
    return {
        "nprocs": archive.nprocs,
        "total_bytes": archive.total_bytes(),
        "total_events": archive.total_events(),
        "bytes_per_event": bytes_per_event(archive),
        "callsites": sorted({c.callsite for _, c in archive.iter_all()}),
    }


# ---------------------------------------------------------------------------
# recovery reporting
# ---------------------------------------------------------------------------


@dataclass
class RankRecovery:
    """What survived of one rank's record file."""

    rank: int
    path: str
    frames_kept: int = 0
    bytes_kept: int = 0
    bytes_dropped: int = 0
    #: None when the file was clean; otherwise the failure kind:
    #: "bad-magic", "truncated-tail", "crc-mismatch", "frame-decode-error",
    #: "unknown-callsite", "frame-count-mismatch", "missing-file".
    failure: str | None = None
    detail: str = ""

    @property
    def clean(self) -> bool:
        return self.failure is None


@dataclass
class RecoveryReport:
    """Per-rank salvage outcome for one archive directory."""

    directory: str
    ranks: dict[int, RankRecovery] = field(default_factory=dict)
    manifest_ok: bool = True
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.manifest_ok
            and not self.notes
            and all(r.clean for r in self.ranks.values())
        )

    def damaged_ranks(self) -> list[RankRecovery]:
        return [r for r in self.ranks.values() if not r.clean]

    def total_bytes_dropped(self) -> int:
        return sum(r.bytes_dropped for r in self.ranks.values())

    def render(self) -> str:
        lines = [f"archive {self.directory}: "
                 + ("clean" if self.clean else "recovered with losses")]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for rec in sorted(self.damaged_ranks(), key=lambda r: r.rank):
            lines.append(
                f"  rank {rec.rank}: {rec.failure} — kept {rec.frames_kept} "
                f"frame(s) ({rec.bytes_kept} B), dropped {rec.bytes_dropped} B"
                + (f" [{rec.detail}]" if rec.detail else "")
            )
        if self.clean:
            frames = sum(r.frames_kept for r in self.ranks.values())
            lines.append(f"  {len(self.ranks)} rank file(s), {frames} frame(s), "
                         f"all CRCs verified")
        return "\n".join(lines)


def _epoch_context(chunk: CDCChunk | None) -> str:
    if chunk is None:
        return "none (no frame decoded)"
    ceilings = dict(chunk.epoch.max_clock_by_rank)
    return (
        f"callsite {chunk.callsite!r}, {chunk.num_events} events, "
        f"epoch ceilings {ceilings}"
    )


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _fsync_fh(fh: IO[bytes]) -> None:
    fh.flush()
    registry = get_registry()
    if registry.enabled:
        registry.counter("store.fsyncs").add()
    try:
        os.fsync(fh.fileno())
    except (OSError, ValueError):  # pragma: no cover - fs without fsync
        pass


def _fsync_dir(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _atomic_write(
    path: str,
    data: bytes,
    opener: Opener,
    fsync: bool,
    retry: RetryPolicy,
) -> None:
    """tmp + flush + fsync + rename: readers never see a partial file."""
    tmp = path + ".tmp"

    def write_tmp() -> None:
        with opener(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                _fsync_fh(fh)

    _retry_io(write_tmp, retry)
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")


def _manifest_bytes(frames: list[int], table: bytes, meta: dict[str, object]) -> bytes:
    """The manifest: one line of JSON, rank ``r``'s frame count at ``frames[r]``
    and ``table`` (:func:`callsite_table`) first, where its sorted key goes."""
    manifest = {
        "format": "cdc-archive",
        "version": ARCHIVE_VERSION,
        "nprocs": len(frames),
        "frames": frames,
        "meta": meta,
    }
    rest = json.dumps(manifest, sort_keys=True, separators=(",", ":"))[1:] + "\n"
    return b"{" + table + rest.encode("utf-8")


class DurableArchiveWriter:
    """Incremental archive writer: one frame per flushed chunk, each one
    flushed durably as it completes.

    Rank files are created eagerly (header only) so a crash at any point
    leaves a salvageable directory; the manifest is written only by
    :meth:`close`, marking the archive complete. :meth:`abort` closes the
    file handles without a manifest — what a crash handler would do.

    ``opener`` exists for fault injection (``tests/faults.py`` drives it)
    and must behave like :func:`open` for binary modes.
    """

    def __init__(
        self,
        directory: str,
        nprocs: int,
        opener: Opener = open,
        fsync: bool = True,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.directory = directory
        self.nprocs = nprocs
        self.retry = retry if retry is not None else RetryPolicy()
        self._opener = opener
        self._fsync = fsync
        os.makedirs(directory, exist_ok=True)
        #: frames written per rank: the manifest's frame table.
        self.frames = [0] * nprocs
        #: callsite id -> name, of every frame written: the names table.
        self._names: dict[int, str] = {}
        self._files: dict[int, IO[bytes]] = {}
        for rank in range(nprocs):
            path = os.path.join(directory, rank_filename(rank))
            self._files[rank] = _retry_io(lambda: opener(path, "wb"), self.retry)
            self._write_at(rank, 0, ARCHIVE_MAGIC)
        self._closed = False

    def _write_at(self, rank: int, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, rewinding cleanly between retries.

        A transient error may leave a partial write behind; seeking back and
        truncating before each attempt keeps the file frame-aligned, so a
        retried frame is never duplicated or interleaved.
        """
        fh = self._files[rank]

        def attempt() -> None:
            fh.seek(offset)
            fh.truncate(offset)
            fh.write(data)
            fh.flush()
            if self._fsync:
                _fsync_fh(fh)

        _retry_io(attempt, self.retry)

    def append(self, rank: int, chunk: CDCChunk) -> tuple[int, int]:
        """Append ``chunk`` to ``rank``'s file as one frame; returns its
        (payload, stored body) byte lengths —
        :meth:`RecordArchive.note_frame`'s."""
        if self._closed:
            raise RecordFormatError("archive writer already closed")
        if rank not in self._files:
            raise RecordFormatError(f"rank {rank} out of range")
        _enter_name(self._names, chunk.callsite)
        registry = get_registry()
        t0 = time.perf_counter_ns()
        frame, raw_len, body_len = _encode_frame(chunk)
        self._write_at(rank, self._files[rank].tell(), frame)
        self.frames[rank] += 1
        if registry.enabled:
            registry.counter("store.frames").add()
            registry.counter("store.bytes").add(len(frame))
            registry.histogram("store.flush_us").observe(
                (time.perf_counter_ns() - t0) // 1000
            )
        return raw_len, body_len

    def close(self, meta: dict[str, object] | None = None) -> None:
        """Finish the archive: close rank files, commit the manifest."""
        if self._closed:
            return
        for fh in self._files.values():
            fh.close()
        _atomic_write(
            os.path.join(self.directory, MANIFEST_NAME),
            _manifest_bytes(self.frames, callsite_table(self._names.values()), dict(meta or {})),
            self._opener,
            self._fsync,
            self.retry,
        )
        self._closed = True

    def abort(self) -> None:
        """Close handles without committing a manifest (crash cleanup)."""
        for fh in self._files.values():
            fh.close()
        self._closed = True

    def __enter__(self) -> "DurableArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def save_archive(
    archive: RecordArchive,
    directory: str,
    opener: Opener = open,
    fsync: bool = True,
    retry: RetryPolicy | None = None,
) -> None:
    """Write a complete archive, every file atomic.

    Unlike the incremental :class:`DurableArchiveWriter`, each rank file is
    assembled in memory and lands via tmp + fsync + rename; a crash during
    save leaves either the old file or the new one, never a torn mix. The
    manifest is committed last, so a partially-saved directory is always
    detectable. Two callsites with one id are refused before any file is
    written.
    """
    table = archive.callsite_table()
    policy = retry if retry is not None else RetryPolicy()
    os.makedirs(directory, exist_ok=True)
    for rank in range(archive.nprocs):
        _atomic_write(
            os.path.join(directory, rank_filename(rank)),
            ARCHIVE_MAGIC + b"".join(map(frame_bytes, archive.chunks(rank))),
            opener,
            fsync,
            policy,
        )
    frames = [len(archive.chunks(rank)) for rank in range(archive.nprocs)]
    _atomic_write(
        os.path.join(directory, MANIFEST_NAME),
        _manifest_bytes(frames, table, dict(archive.meta)),
        opener,
        fsync,
        policy,
    )


# ---------------------------------------------------------------------------
# loading, salvage, and opening a run
# ---------------------------------------------------------------------------


def _parse_rank_frames(
    data: bytes, recovery: RankRecovery, archive: RecordArchive, callsites: Mapping | None
) -> None:
    """Append the longest valid frame prefix (and each frame's sizes) to
    ``archive``, chunks named from ``callsites`` (labelled without it);
    record in ``recovery`` how it ended."""
    offset = len(ARCHIVE_MAGIC)
    size = len(data)
    while offset < size:
        try:
            head, used = decode_uvarint(data[offset : offset + _MAX_LENGTH_BYTES], 0)
        except RecordFormatError:  # cut inside the length, or no u32's varint
            head, used = size << 1, 0
        length = head >> 1
        start = offset + used + _CRC_BYTES
        end = start + length
        if end > size:
            recovery.failure = "truncated-tail"
            recovery.detail = f"frame {recovery.frames_kept}: {size - offset} B of it present"
            break
        body = data[start:end]
        if zlib.crc32(body).to_bytes(_CRC_BYTES, "little") != data[start - _CRC_BYTES : start]:
            recovery.failure = "crc-mismatch"
            recovery.detail = f"frame {recovery.frames_kept}"
            break
        try:
            if head & 1:  # stored: the payload itself, held to the same cap
                if length > MAX_PAYLOAD_BYTES:
                    raise ValueError(f"stored body of {length} bytes is over the payload cap")
                raw = body
            else:
                inflate = zlib.decompressobj(-15)
                raw = inflate.decompress(body, MAX_PAYLOAD_BYTES)
                if not inflate.eof or inflate.unused_data:  # cut, over the cap, or trailed
                    raise ValueError("body is not one complete deflate stream under the cap")
            chunk = decode_frame_payload(raw, callsites)
        except UnknownCallsiteError as exc:
            recovery.failure = "unknown-callsite"
            recovery.detail = f"frame {recovery.frames_kept}: {exc}"
            break
        except (zlib.error, RecordFormatError, ValueError) as exc:
            # CRC passed but content is bad (ValueError: not exactly one
            # stream): written corrupt, not bit rot.
            recovery.failure = "frame-decode-error"
            recovery.detail = f"frame {recovery.frames_kept}: {exc}"
            break
        archive.append(recovery.rank, chunk)
        archive.note_frame(chunk, len(raw), length)
        recovery.frames_kept += 1
        offset = end
    recovery.bytes_kept = offset
    recovery.bytes_dropped = size - offset


def _json_count(value: Any, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _read_manifest(
    directory: str, opener: Opener
) -> tuple[int, dict[str, object], list[int], dict[int, str]] | None:
    """Return (nprocs, meta, expected frames per rank, callsite id -> name);
    None if absent.

    Outside input: every value is type-checked, and the frame table must
    have ``nprocs`` entries and the names table no more than the frames
    before anything sized by either is built, so an accepted manifest costs
    no more than its own length.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with opener(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    try:
        manifest = json.loads(raw.decode("utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not an object")
        layout = (manifest.get("format"), manifest.get("version"))
        if layout != ("cdc-archive", ARCHIVE_VERSION):
            raise ValueError(
                f"unsupported archive layout (format {layout[0]!r}, version "
                f"{layout[1]!r}): only 'cdc-archive' version {ARCHIVE_VERSION} "
                "is readable"
            )
        nprocs = _json_count(manifest["nprocs"], "nprocs")
        frames, meta = manifest["frames"], manifest.get("meta", {})
        if not isinstance(frames, list) or not isinstance(meta, dict):
            raise ValueError("frames must be a list and meta an object")
        if len(frames) != nprocs:
            raise ValueError(
                f"frame table has {len(frames)} rank(s), nprocs is {nprocs}"
            )
        expected = [_json_count(count, f"frames[{rank}]") for rank, count in enumerate(frames)]
        names = manifest.get("callsites", [])  # absent: no frame to name
        if not isinstance(names, list):
            raise ValueError("callsites must be a list")
        if len(names) > sum(expected):
            raise ValueError(f"{len(names)} callsite(s) for {sum(expected)} frame(s)")
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ValueError("callsites must be distinct strings")
        callsites: dict[int, str] = {}
        for name in names:
            _enter_name(callsites, name)
    except (ValueError, LookupError, TypeError, RecursionError, RecordFormatError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise RecordFormatError(f"malformed MANIFEST in {directory}: {what}") from exc
    return nprocs, meta, expected, callsites


def _scan_rank_files(directory: str) -> list[int]:
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    names = (n for n in entries if n.startswith("rank-") and n.endswith(".cdc"))
    numbers = (n.removeprefix("rank-").removesuffix(".cdc") for n in names)
    return sorted(int(n) for n in numbers if n.isdecimal())


def load_archive(
    directory: str,
    mode: str = "strict",
    opener: Opener = open,
) -> tuple[RecordArchive, RecoveryReport]:
    """Load an archive directory.

    ``mode="strict"`` raises :class:`~repro.errors.ArchiveCorruptionError`
    at the first integrity violation; ``mode="salvage"`` recovers the
    longest valid epoch-aligned chunk prefix of every rank and reports the
    damage in the returned :class:`RecoveryReport` (which is also returned,
    all-clean, for intact archives). A manifest that is malformed or
    declares another layout is a :class:`~repro.errors.RecordFormatError`
    in both modes.
    """
    if mode not in ("strict", "salvage"):
        raise ValueError(f"mode must be 'strict' or 'salvage', got {mode!r}")
    registry = get_registry()
    if not registry.enabled:
        return _load_archive(directory, mode, opener)
    with span("store.load_archive", directory=directory, mode=mode) as sp:
        archive, report = _load_archive(directory, mode, opener)
        sp.set(clean=report.clean, ranks=len(report.ranks))
    registry.counter("store.loads").add()
    registry.counter("store.frames_kept").add(
        sum(r.frames_kept for r in report.ranks.values())
    )
    registry.counter("store.bytes_dropped").add(report.total_bytes_dropped())
    if not report.clean:
        registry.counter("store.salvaged_loads").add()
    return archive, report


def _load_archive(
    directory: str,
    mode: str,
    opener: Opener,
) -> tuple[RecordArchive, RecoveryReport]:
    strict = mode == "strict"
    report = RecoveryReport(directory=directory)

    manifest = _read_manifest(directory, opener)
    if manifest is None:
        # crash before finalize, or not an archive directory at all
        ranks_present = _scan_rank_files(directory)
        if strict or not ranks_present:
            raise RecordFormatError(f"no MANIFEST in {directory}")
        nprocs, meta, expected_frames, callsites = ranks_present[-1] + 1, {}, None, None
        if nprocs - len(ranks_present) > MAX_ABSENT_RANKS:
            raise RecordFormatError(
                f"no MANIFEST in {directory} and {len(ranks_present)} rank file(s) "
                f"below rank {nprocs}: too sparse to infer the rank count"
            )
        report.manifest_ok = False
        report.notes.append(
            "MANIFEST missing (crash before finalize?); "
            f"inferred nprocs={nprocs} from rank files, callsites labelled by id"
        )
    else:
        nprocs, meta, expected_frames, callsites = manifest

    archive = RecordArchive(nprocs=nprocs, meta=meta)
    for rank in range(nprocs):
        path = os.path.join(directory, rank_filename(rank))
        recovery = RankRecovery(rank=rank, path=path)
        report.ranks[rank] = recovery
        try:
            data = _retry_io(lambda p=path: _read_bytes(p, opener), RetryPolicy())
        except FileNotFoundError as exc:
            recovery.failure = "missing-file"
            if strict:
                raise ArchiveCorruptionError(
                    rank, 0, "missing-file", path=path
                ) from exc
            continue

        if data.startswith(ARCHIVE_MAGIC):
            _parse_rank_frames(data, recovery, archive, callsites)
        else:
            recovery.bytes_dropped = len(data)
            if ARCHIVE_MAGIC.startswith(data):
                # crash while writing the 8-byte header itself
                recovery.failure = "truncated-tail"
                recovery.detail = f"only {len(data)} header byte(s) written"
            else:
                recovery.failure = "bad-magic"
                recovery.detail = f"file starts {data[:len(ARCHIVE_MAGIC)]!r}"

        if (
            recovery.failure is None
            and expected_frames is not None
            and recovery.frames_kept != expected_frames[rank]
        ):
            recovery.failure = "frame-count-mismatch"
            recovery.detail = (
                f"manifest expects {expected_frames[rank]} frame(s), "
                f"file holds {recovery.frames_kept}"
            )

        if strict and recovery.failure is not None:
            chunks = archive.chunks(rank)
            raise ArchiveCorruptionError(
                rank,
                recovery.frames_kept,
                f"{recovery.failure}"
                + (f" ({recovery.detail})" if recovery.detail else ""),
                path=path,
                epoch_context=_epoch_context(chunks[-1] if chunks else None),
            )
    return archive, report


def _read_bytes(path: str, opener: Opener) -> bytes:
    with opener(path, "rb") as fh:
        return fh.read()


@dataclass
class StoredRun:
    """A recorded run as :func:`open_run` resolved it."""

    archive: RecordArchive
    #: how the load went; None when nothing was read from storage.
    recovery: RecoveryReport | None = None
    #: the archive directory, if there is one.
    path: str | None = None
    #: what to call the run in output: the path, or its ledger line.
    label: str = "(in memory)"
    #: ``"salvage"`` when ``archive`` may be a prefix of what was recorded.
    mode: str = "strict"

    @property
    def meta(self) -> dict[str, object]:
        return self.archive.meta

    def program(self, fallback: Mapping[str, Any] | None = None):
        """The workload program the manifest names. ``fallback`` is a
        counterpart run's metadata, for the salvaged directory of a crashed
        recording: no manifest was committed, so it cannot name its own."""
        from repro.workloads import make_workload

        meta: Mapping[str, Any] = self.meta
        if "workload" not in meta:
            meta = dict(fallback or {}, nprocs=self.archive.nprocs)
        if "workload" not in meta:
            raise ValueError(
                f"record {self.label} has no workload metadata: re-record with "
                "the CLI, or replay it through ReplaySession with its program"
            )
        return make_workload(
            str(meta["workload"]),
            int(meta.get("nprocs", self.archive.nprocs)),
            **dict(meta.get("params", {})),
        )[0]


def open_run(source: Any, ledger: Any = None, salvage: bool | None = None) -> StoredRun:
    """Resolve whatever names a recorded run to a :class:`StoredRun`.

    ``source`` is an archive directory; a ledger run id, when ``ledger`` (a
    path or a :class:`~repro.obs.ledger.RunLedger`) is given and ``source``
    is no directory; a :class:`RecordArchive` or a session ``RunResult``,
    taken as given; or a :class:`StoredRun`, returned as is. A directory is
    loaded strictly (``salvage=False``), in salvage mode (``True``), or
    (``None``) strictly with salvage as the fallback — for damaged frames,
    or the manifest-less directory a mid-run crash leaves — so that
    analyses localize a truncation instead of refusing the record.

    Raises :class:`~repro.errors.RecordFormatError` for an unreadable
    directory, ``LookupError`` for a run id the ledger cannot resolve to an
    archive, ``TypeError`` for any other kind of source.
    """
    if isinstance(source, StoredRun):
        return source
    mode = "salvage" if salvage else "strict"
    in_memory = isinstance(source, RecordArchive)
    archive = source if in_memory else getattr(source, "archive", None)
    if isinstance(archive, RecordArchive):
        return StoredRun(archive, getattr(source, "recovery", None), mode=mode)
    if not isinstance(source, str):
        raise TypeError(f"cannot open a recorded run from {type(source).__name__}")
    path = label = source
    if ledger is not None and not os.path.isdir(source):
        from repro.obs.ledger import RunLedger

        if isinstance(ledger, str):
            ledger = RunLedger(ledger)
        try:
            entry = ledger.find(source)
        except KeyError as exc:
            raise LookupError(exc.args[0]) from None  # the message, unquoted
        if entry.archive is None:
            raise LookupError(f"ledger run {source} recorded no archive path")
        path = entry.archive
        label = f"{source} ({entry.workload} seed {entry.network_seed})"
    try:
        archive, recovery = load_archive(path, mode=mode)
    except RecordFormatError:
        if salvage is not None:
            raise
        mode = "salvage"
        archive, recovery = load_archive(path, mode=mode)
    return StoredRun(archive, recovery, path, label, mode)
