"""Crash-tolerant archive storage: the framed v2 record format.

The v1 layout of :mod:`repro.replay.chunk_store` serializes one monolithic
zlib blob per rank at exit — a crash mid-flush or a single flipped byte
destroys the whole rank record and surfaces as a raw ``zlib.error``. This
module is the durable replacement, built around the paper's epoch lines
(Section 3.5): records leave memory in bounded chunks *during* the run, so
storage must be able to lose a tail without losing the run.

**v2 rank file layout** (``rank-NNNNN.cdc``)::

    magic "CDCARC2\\n" (8 bytes)
    frame*                       appended as chunks flush
    frame := u32 payload length (LE)
             u32 CRC32 of payload (LE)
             payload = zlib(serialize_cdc_chunks([chunk]))

Each frame holds exactly one CDC chunk, so any valid frame prefix is an
epoch-aligned chunk prefix: salvage never has to split a chunk. The
manifest (written last, atomically) records the expected frame count per
rank, letting the loader distinguish a clean short record from a crash.

**Durability rules**

* frames are flushed (and by default fsync'd) as they complete;
* manifests — and rank files on the whole-archive :func:`save_archive`
  path — are written via tmp file + fsync + atomic rename;
* transient ``OSError`` s (EIO, EAGAIN, EINTR, EBUSY) are retried with
  bounded exponential backoff before giving up.

**Recovery** — :func:`load_archive` reads both v1 and v2 directories. In
``strict`` mode the first integrity violation raises
:class:`~repro.errors.ArchiveCorruptionError` (rank, frame index, epoch
context of the last good chunk). In ``salvage`` mode it keeps the longest
valid frame prefix per rank and returns a :class:`RecoveryReport` saying
exactly what was kept and what was dropped.
"""

from __future__ import annotations

import errno
import json
import os
import random
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, IO, Sequence

from repro.core.compression import ZLIB_LEVEL
from repro.core.formats import deserialize_cdc_chunks, serialize_cdc_chunks
from repro.core.pipeline import CDCChunk
from repro.errors import ArchiveCorruptionError, RecordFormatError
from repro.obs import get_registry, span
from repro.replay.chunk_store import RecordArchive

__all__ = [
    "ARCHIVE_MAGIC",
    "ARCHIVE_VERSION",
    "DurableArchiveWriter",
    "RankRecovery",
    "RecoveryReport",
    "RetryPolicy",
    "frame_bytes",
    "load_archive",
    "rank_filename",
    "save_archive",
]

ARCHIVE_MAGIC = b"CDCARC2\n"
ARCHIVE_VERSION = 2
MANIFEST_NAME = "MANIFEST"

#: frame header: little-endian payload length, CRC32 of the payload bytes.
_FRAME_HEADER = struct.Struct("<II")

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

    ``jitter`` spreads retries by scaling each delay by a factor drawn
    uniformly from ``[1 - jitter, 1 + jitter]``. The draw is a pure
    function of ``(seed, attempt)``, so a seeded policy produces the exact
    same backoff schedule every run — fault-injection tests stay
    reproducible while production still decorrelates retry storms.
    """

    attempts: int = 4
    base_delay: float = 0.01
    max_delay: float = 0.25
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int) -> float:
        base = min(self.base_delay * (2 ** attempt), self.max_delay)
        if self.jitter == 0.0:
            return base
        # one int mixes seed and attempt: Random(tuple) is a TypeError.
        rng = random.Random(self.seed * 1000003 + attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


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
# frame encoding
# ---------------------------------------------------------------------------


def frame_bytes(chunk: CDCChunk) -> bytes:
    """One self-delimiting frame: header + zlib'd single-chunk payload."""
    payload = zlib.compress(serialize_cdc_chunks([chunk]), ZLIB_LEVEL)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _rank_file_bytes(chunks: Sequence[CDCChunk]) -> bytes:
    return ARCHIVE_MAGIC + b"".join(frame_bytes(c) for c in chunks)


# ---------------------------------------------------------------------------
# recovery reporting
# ---------------------------------------------------------------------------


@dataclass
class RankRecovery:
    """What survived of one rank's record file."""

    rank: int
    path: str
    format: str  # "v2" | "v1" | "missing"
    frames_kept: int = 0
    bytes_kept: int = 0
    bytes_dropped: int = 0
    #: None when the file was clean; otherwise the failure kind:
    #: "truncated-tail", "crc-mismatch", "frame-decode-error",
    #: "frame-count-mismatch", "missing-file", "legacy-corrupt".
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


def _manifest_bytes(
    nprocs: int, frames: dict[int, int], meta: dict[str, object]
) -> bytes:
    manifest = {
        "format": "cdc-archive",
        "version": ARCHIVE_VERSION,
        "nprocs": nprocs,
        "frames": {str(rank): count for rank, count in sorted(frames.items())},
        "meta": meta,
    }
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


class _RankFrameWriter:
    """Appends frames to one rank file, flushing each one durably."""

    def __init__(
        self, path: str, opener: Opener, fsync: bool, retry: RetryPolicy
    ) -> None:
        self.path = path
        self.frames = 0
        self._fsync = fsync
        self._retry = retry
        self._fh: IO[bytes] | None = _retry_io(lambda: opener(path, "wb"), retry)
        self._write_at(0, ARCHIVE_MAGIC)

    def _write_at(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, rewinding cleanly between retries.

        A transient error may leave a partial write behind; seeking back and
        truncating before each attempt keeps the file frame-aligned, so a
        retried frame is never duplicated or interleaved.
        """
        fh = self._fh
        assert fh is not None

        def attempt() -> None:
            fh.seek(offset)
            fh.truncate(offset)
            fh.write(data)
            fh.flush()
            if self._fsync:
                _fsync_fh(fh)

        _retry_io(attempt, self._retry)

    def append(self, chunk: CDCChunk) -> int:
        """Write ``chunk`` as one frame; returns its payload's byte length."""
        assert self._fh is not None, "writer already closed"
        registry = get_registry()
        t0 = time.perf_counter_ns()
        frame = frame_bytes(chunk)
        self._write_at(self._fh.tell(), frame)
        self.frames += 1
        if registry.enabled:
            registry.counter("store.frames").add()
            registry.counter("store.bytes").add(len(frame))
            registry.histogram("store.flush_us").observe(
                (time.perf_counter_ns() - t0) // 1000
            )
        return len(frame) - _FRAME_HEADER.size

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None


class DurableArchiveWriter:
    """Incremental v2 archive writer: one frame per flushed chunk.

    Rank files are created eagerly (header only) so a crash at any point
    leaves a salvageable directory; the manifest is written only by
    :meth:`close`, marking the archive complete. :meth:`abort` closes the
    file handles without a manifest — what a crash handler would do.

    ``opener`` exists for fault injection (see :mod:`repro.testing.faults`)
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
        self._writers = {
            rank: _RankFrameWriter(
                os.path.join(directory, rank_filename(rank)),
                opener,
                fsync,
                self.retry,
            )
            for rank in range(nprocs)
        }
        self._closed = False

    @property
    def frames(self) -> dict[int, int]:
        return {rank: w.frames for rank, w in self._writers.items()}

    def append(self, rank: int, chunk: CDCChunk) -> int:
        """Append one frame to ``rank``'s file; returns the byte length of
        its payload (the chunk serialized alone, then deflated)."""
        if self._closed:
            raise RecordFormatError("archive writer already closed")
        if rank not in self._writers:
            raise RecordFormatError(f"rank {rank} out of range")
        return self._writers[rank].append(chunk)

    def close(self, meta: dict[str, object] | None = None) -> None:
        """Finish the archive: close rank files, commit the manifest."""
        if self._closed:
            return
        frames = self.frames
        for writer in self._writers.values():
            writer.close()
        _atomic_write(
            os.path.join(self.directory, MANIFEST_NAME),
            _manifest_bytes(self.nprocs, frames, dict(meta or {})),
            self._opener,
            self._fsync,
            self.retry,
        )
        self._closed = True

    def abort(self) -> None:
        """Close handles without committing a manifest (crash cleanup)."""
        for writer in self._writers.values():
            writer.close()
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
    """Write a complete archive in the v2 format, every file atomic.

    Unlike the incremental :class:`DurableArchiveWriter`, each rank file is
    assembled in memory and lands via tmp + fsync + rename; a crash during
    save leaves either the old file or the new one, never a torn mix. The
    manifest is committed last, so a partially-saved directory is always
    detectable.
    """
    policy = retry if retry is not None else RetryPolicy()
    os.makedirs(directory, exist_ok=True)
    frames: dict[int, int] = {}
    for rank in range(archive.nprocs):
        chunks = archive.chunks(rank)
        frames[rank] = len(chunks)
        _atomic_write(
            os.path.join(directory, rank_filename(rank)),
            _rank_file_bytes(chunks),
            opener,
            fsync,
            policy,
        )
    _atomic_write(
        os.path.join(directory, MANIFEST_NAME),
        _manifest_bytes(archive.nprocs, frames, dict(archive.meta)),
        opener,
        fsync,
        policy,
    )


# ---------------------------------------------------------------------------
# loader / salvage
# ---------------------------------------------------------------------------


def _parse_rank_frames(
    data: bytes, recovery: RankRecovery
) -> list[CDCChunk]:
    """Decode the longest valid frame prefix; record how it ended."""
    chunks: list[CDCChunk] = []
    offset = len(ARCHIVE_MAGIC)
    size = len(data)
    while offset < size:
        if offset + _FRAME_HEADER.size > size:
            recovery.failure = "truncated-tail"
            recovery.detail = f"{size - offset} header byte(s) at EOF"
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > size:
            recovery.failure = "truncated-tail"
            recovery.detail = (
                f"frame {recovery.frames_kept} declares {length} B, "
                f"{size - start} B present"
            )
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            recovery.failure = "crc-mismatch"
            recovery.detail = f"frame {recovery.frames_kept}"
            break
        try:
            decoded = deserialize_cdc_chunks(zlib.decompress(payload))
        except (zlib.error, RecordFormatError) as exc:
            # CRC passed but content is bad: written corrupt, not bit rot.
            recovery.failure = "frame-decode-error"
            recovery.detail = f"frame {recovery.frames_kept}: {exc}"
            break
        chunks.extend(decoded)
        recovery.frames_kept += 1
        offset = end
    recovery.bytes_kept = offset
    recovery.bytes_dropped = size - offset
    return chunks


def _load_rank_v1(
    data: bytes, recovery: RankRecovery
) -> list[CDCChunk]:
    """Legacy path: one zlib blob, all-or-nothing."""
    try:
        chunks = deserialize_cdc_chunks(zlib.decompress(data))
    except (zlib.error, RecordFormatError) as exc:
        recovery.failure = "legacy-corrupt"
        recovery.detail = str(exc)
        recovery.bytes_dropped = len(data)
        return []
    recovery.frames_kept = len(chunks)
    recovery.bytes_kept = len(data)
    return chunks


def _read_manifest(
    directory: str, opener: Opener
) -> tuple[int, dict[str, object], dict[int, int] | None] | None:
    """Return (nprocs, meta, expected frames or None for v1); None if absent."""
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
        nprocs = int(manifest["nprocs"])
        meta = dict(manifest.get("meta", {}))
        expected: dict[int, int] | None = None
        if "format" in manifest or "version" in manifest:
            if manifest.get("format") != "cdc-archive":
                raise ValueError(f"unknown format {manifest.get('format')!r}")
            if int(manifest.get("version", 0)) != ARCHIVE_VERSION:
                raise ValueError(
                    f"unsupported archive version {manifest.get('version')!r}"
                )
            expected = {
                int(rank): int(count)
                for rank, count in dict(manifest["frames"]).items()
            }
            if sorted(expected) != list(range(nprocs)):
                raise ValueError(
                    f"frame table ranks {sorted(expected)} disagree with "
                    f"nprocs {nprocs}"
                )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise RecordFormatError(f"malformed MANIFEST in {directory}: {exc}") from exc
    return nprocs, meta, expected


def _scan_rank_files(directory: str) -> list[int]:
    ranks = []
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in entries:
        if name.startswith("rank-") and name.endswith(".cdc"):
            try:
                ranks.append(int(name[len("rank-"): -len(".cdc")]))
            except ValueError:
                continue
    return sorted(ranks)


def load_archive(
    directory: str,
    mode: str = "strict",
    opener: Opener = open,
) -> tuple[RecordArchive, RecoveryReport]:
    """Load a v1 or v2 archive directory.

    ``mode="strict"`` raises :class:`~repro.errors.ArchiveCorruptionError`
    at the first integrity violation; ``mode="salvage"`` recovers the
    longest valid epoch-aligned chunk prefix of every rank and reports the
    damage in the returned :class:`RecoveryReport` (which is also returned,
    all-clean, for intact archives).
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
    expected_frames: dict[int, int] | None = None
    if manifest is None:
        # crash before finalize, or not an archive directory at all
        ranks_present = _scan_rank_files(directory)
        if strict or not ranks_present:
            raise RecordFormatError(f"no MANIFEST in {directory}")
        report.manifest_ok = False
        report.notes.append(
            "MANIFEST missing (crash before finalize?); "
            f"inferred nprocs={ranks_present[-1] + 1} from rank files"
        )
        nprocs = ranks_present[-1] + 1
        meta: dict[str, object] = {}
    else:
        nprocs, meta, expected_frames = manifest
        if expected_frames is None:
            # v1 manifests carry no redundancy: a corrupted nprocs that
            # *shrinks* the archive would silently drop ranks. Rank files
            # beyond nprocs can only mean a bad manifest.
            stale = [r for r in _scan_rank_files(directory) if r >= nprocs]
            if stale:
                raise RecordFormatError(
                    f"MANIFEST says nprocs={nprocs} but rank file(s) "
                    f"{stale} exist in {directory}"
                )

    archive = RecordArchive(nprocs=nprocs, meta=meta)
    for rank in range(nprocs):
        path = os.path.join(directory, rank_filename(rank))
        recovery = RankRecovery(rank=rank, path=path, format="v2")
        report.ranks[rank] = recovery
        try:
            data = _retry_io(
                lambda p=path: _read_bytes(p, opener), RetryPolicy()
            )
        except FileNotFoundError as exc:
            recovery.format = "missing"
            recovery.failure = "missing-file"
            if strict:
                raise ArchiveCorruptionError(
                    rank, 0, "missing-file", path=path
                ) from exc
            continue

        if data[: len(ARCHIVE_MAGIC)] == ARCHIVE_MAGIC:
            chunks = _parse_rank_frames(data, recovery)
        elif len(data) < len(ARCHIVE_MAGIC) and ARCHIVE_MAGIC.startswith(data):
            # crash while writing the 8-byte header itself
            recovery.failure = "truncated-tail"
            recovery.detail = f"only {len(data)} header byte(s) written"
            recovery.bytes_dropped = len(data)
            chunks = []
        else:
            recovery.format = "v1"
            chunks = _load_rank_v1(data, recovery)

        if (
            recovery.failure is None
            and expected_frames is not None
            and recovery.frames_kept != expected_frames.get(rank)
        ):
            recovery.failure = "frame-count-mismatch"
            recovery.detail = (
                f"manifest expects {expected_frames.get(rank)} frame(s), "
                f"file holds {recovery.frames_kept}"
            )

        if strict and recovery.failure is not None:
            last_good = chunks[-1] if chunks else None
            raise ArchiveCorruptionError(
                rank,
                recovery.frames_kept,
                f"{recovery.failure}"
                + (f" ({recovery.detail})" if recovery.detail else ""),
                path=path,
                epoch_context=_epoch_context(last_good),
            )
        for chunk in chunks:
            archive.append(rank, chunk)
    return archive, report


def _read_bytes(path: str, opener: Opener) -> bytes:
    with opener(path, "rb") as fh:
        return fh.read()
