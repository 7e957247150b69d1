"""Fault injection for record storage: crashes, torn writes, bit rot, EIO.

The durable archive format (:mod:`repro.replay.durable_store`) claims to
survive exactly the failures a record-and-replay tool exists to diagnose:
a node dying mid-flush, a write torn at a sector boundary, a flipped bit
on storage, a transiently failing device. This module *produces* those
failures deterministically so the claim is testable end to end — through
:class:`~repro.replay.session.RecordSession`, the recording controllers,
the store, and the replayer.

A :class:`FaultPlan` describes the failure; a :class:`FaultInjector` is an
``open``-compatible factory (pass it as ``store_opener`` /
``opener``) that wraps writable files matching the plan's target glob in a
:class:`FaultyFile` applying the plan::

    plan = FaultPlan(crash_after_bytes=512)
    injector = FaultInjector(plan)
    session = RecordSession(program, nprocs=4, store_dir=d,
                            store_opener=injector.open)
    with pytest.raises(InjectedCrash):
        session.run()                      # node "dies" mid-flush
    archive, report = load_archive(d, mode="salvage")

Faults:

* ``crash_after_bytes=N`` — a cumulative write budget across matching
  files; the write that would exceed it lands partially, then the process
  "dies" (:class:`InjectedCrash`).
* ``torn_write_at=N`` — the first single write spanning per-file offset
  ``N`` is cut at ``N`` and the process dies: a torn sector.
* ``bit_flip_at=N`` (with ``bit_flip_bit``) — the write covering per-file
  offset ``N`` has one bit silently flipped: storage bit rot. No crash.
* ``transient_error_attempts=K`` — the first ``K`` write calls raise
  ``OSError(EIO)``, then the device recovers: exercises the store's
  bounded-backoff retry path.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import IO


class InjectedCrash(BaseException):
    """Simulated process death mid-write.

    Deliberately *not* an :class:`Exception` subclass: library code must
    not be able to swallow a crash with a broad ``except Exception``, just
    as it could not survive a real ``kill -9``.
    """


@dataclass
class FaultPlan:
    """Declarative description of the storage failure to inject."""

    #: basename glob selecting which files the plan applies to.
    target_glob: str = "rank-*"
    #: cumulative write budget (bytes) across matching files; exceeded -> crash.
    crash_after_bytes: int | None = None
    #: per-file offset at which a spanning write is torn, then crash.
    torn_write_at: int | None = None
    #: per-file byte offset whose write gets one bit flipped (silent).
    bit_flip_at: int | None = None
    #: which bit of the ``bit_flip_at`` byte to flip.
    bit_flip_bit: int = 0
    #: number of leading write calls that fail with transient EIO.
    transient_error_attempts: int = 0


class FaultInjector:
    """``open``-compatible factory applying a :class:`FaultPlan`.

    State (byte budget, attempt counter) is shared across every file the
    injector opens, so one plan describes one failing *device*.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.bytes_written = 0
        self.write_attempts = 0
        self.crashed = False
        self.flipped = False

    def open(self, path: str, mode: str = "rb", **kwargs) -> IO[bytes]:
        fh = open(path, mode, **kwargs)
        writable = any(flag in mode for flag in ("w", "a", "+"))
        if writable and fnmatch(os.path.basename(path), self.plan.target_glob):
            return FaultyFile(fh, self, path)
        return fh


class FaultyFile:
    """Binary file wrapper that misbehaves according to the plan."""

    def __init__(self, fh: IO[bytes], injector: FaultInjector, path: str) -> None:
        self._fh = fh
        self._inj = injector
        self.path = path

    # -- the faulty operation ---------------------------------------------------

    def write(self, data) -> int:
        inj = self._inj
        plan = inj.plan
        inj.write_attempts += 1
        if inj.write_attempts <= plan.transient_error_attempts:
            raise OSError(errno.EIO, f"injected transient EIO ({self.path})")
        payload = bytes(data)
        pos = self._fh.tell()
        if (
            plan.bit_flip_at is not None
            and not inj.flipped
            and pos <= plan.bit_flip_at < pos + len(payload)
        ):
            i = plan.bit_flip_at - pos
            flipped = payload[i] ^ (1 << (plan.bit_flip_bit & 7))
            payload = payload[:i] + bytes([flipped]) + payload[i + 1 :]
            inj.flipped = True
        if (
            plan.torn_write_at is not None
            and pos < plan.torn_write_at < pos + len(payload)
        ):
            self._fh.write(payload[: plan.torn_write_at - pos])
            self._fh.flush()
            inj.crashed = True
            raise InjectedCrash(
                f"torn write at offset {plan.torn_write_at} in {self.path}"
            )
        if plan.crash_after_bytes is not None:
            budget = plan.crash_after_bytes - inj.bytes_written
            if budget < len(payload):
                keep = max(0, budget)
                if keep:
                    self._fh.write(payload[:keep])
                    self._fh.flush()
                    inj.bytes_written += keep
                inj.crashed = True
                raise InjectedCrash(
                    f"crash after {plan.crash_after_bytes} written bytes "
                    f"(in {self.path})"
                )
        n = self._fh.write(payload)
        inj.bytes_written += len(payload)
        return n

    # -- transparent delegation -------------------------------------------------

    def read(self, *args):  # pragma: no cover - writers rarely read
        return self._fh.read(*args)

    def seek(self, *args) -> int:
        return self._fh.seek(*args)

    def tell(self) -> int:
        return self._fh.tell()

    def truncate(self, *args) -> int:
        return self._fh.truncate(*args)

    def flush(self) -> None:
        self._fh.flush()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

