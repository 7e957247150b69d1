"""Fire-and-forget telemetry shipping from a live session to an aggregator.

:class:`TelemetryShipper` is the client half of the fleet plane: a daemon
thread a session attaches via ``telemetry_sink="tcp://host:port"`` that
periodically ships

* **snapshot deltas** of the run's :class:`~repro.obs.registry.
  TelemetryRegistry` — what changed since the last shipped snapshot, in
  ``export_snapshot`` shape, so the server folds them in with the
  commutative :meth:`~repro.obs.registry.TelemetryRegistry.merge`;
* the same ``sample``/``chunk`` progress objects the local
  :class:`~repro.obs.monitor.MetricsStreamWriter` writes (one shape, one
  renderer — ``repro monitor`` parses both).

Shipping is strictly fire-and-forget. The engine thread never calls into
the shipper; the shipper thread never blocks longer than its socket
timeouts; frames queue in a bounded buffer that drops its oldest entry
(counted in :class:`ShipperStats`) instead of growing; a dead or slow
server costs the run nothing but those drops. Reconnection backs off
under the shared :class:`~repro.replay.durable_store.RetryPolicy`
schedule and re-handshakes with a bumped ``incarnation``.

Exactly-once accounting: every buffered frame carries a ``seq``; frames
stay buffered until the server acks them, and a reconnect retransmits
everything unacked. The server deduplicates on ``seq``, so retransmits
never double-count — the delta-merge parity tests pin this end to end.

The shipper's own counters (frames sent/dropped, reconnects) live in
:class:`ShipperStats` and the ``end`` frame — deliberately *not* in the
shipped registry, so the server-side merged totals for a run equal the
local registry's final snapshot exactly.
"""

from __future__ import annotations

import itertools
import os
import select
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.monitor import drain_chunk_objects, sample_object
from repro.obs.registry import NullRegistry, TelemetryRegistry
from repro.obs.agg.wire import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    encode_frame,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replay.durable_store import RetryPolicy

__all__ = [
    "ShipperStats",
    "TelemetryShipper",
    "parse_sink",
    "snapshot_delta",
]

#: default time between delta frames (heartbeat cadence).
DEFAULT_INTERVAL = 0.1

#: default bound on unacked + unsent frames held client-side.
DEFAULT_BUFFER_FRAMES = 512


def _default_retry() -> "RetryPolicy":
    """Jittered reconnect backoff, capped at 1 s between attempts.

    Imported lazily: ``durable_store`` itself imports ``repro.obs``, so a
    module-level import here would cycle when ``durable_store`` loads
    first.
    """
    from repro.replay.durable_store import RetryPolicy

    return RetryPolicy(
        attempts=4, base_delay=0.05, max_delay=1.0, jitter=0.5, seed=0
    )

_run_counter = itertools.count(1)


def parse_sink(spec: str) -> tuple[str, int]:
    """``"tcp://host:port"`` (or bare ``"host:port"``) -> (host, port)."""
    raw = spec.strip()
    if raw.startswith("tcp://"):
        raw = raw[len("tcp://"):]
    elif "://" in raw:
        scheme = raw.split("://", 1)[0]
        raise ValueError(
            f"unsupported telemetry sink scheme {scheme!r} in {spec!r} "
            "(only tcp:// is supported)"
        )
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"telemetry sink {spec!r} is not host:port or tcp://host:port"
        )
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"telemetry sink {spec!r} has a non-numeric port")
    if not 0 < port_num < 65536:
        raise ValueError(f"telemetry sink port {port_num} out of range")
    return host, port_num


def snapshot_delta(
    prev: Mapping[str, Any], curr: Mapping[str, Any]
) -> dict[str, Any]:
    """What changed between two ``export_snapshot`` mappings.

    The result is itself ``export_snapshot``-shaped, so a receiver folds
    it in with plain ``registry.merge(delta)`` — and because counter and
    histogram merges add while gauge/extrema merges are monotone, a
    stream of deltas merged in order reconstructs the sender's final
    snapshot exactly:

    * counters: current minus previous value;
    * histograms: per-bucket count deltas plus count/total deltas, with
      the *current* min/max (extrema merging is idempotent);
    * gauges: the update-count delta rides with the current value and
      high-water mark (max-merge is monotone, so re-sending the current
      max is safe).

    Instruments with no change since ``prev`` are omitted; an empty dict
    means nothing changed.
    """
    out: dict[str, Any] = {}
    counters: dict[str, int] = {}
    prev_counters = prev.get("counters") or {}
    for name, value in (curr.get("counters") or {}).items():
        d = int(value) - int(prev_counters.get(name, 0))
        if d > 0:
            counters[name] = d
    if counters:
        out["counters"] = counters
    gauges: dict[str, dict[str, Any]] = {}
    prev_gauges = prev.get("gauges") or {}
    for name, snap in (curr.get("gauges") or {}).items():
        d = int(snap.get("updates", 0)) - int(
            (prev_gauges.get(name) or {}).get("updates", 0)
        )
        if d > 0:
            gauges[name] = {
                "value": snap.get("value", 0.0),
                "max": snap.get("max", 0.0),
                "updates": d,
            }
    if gauges:
        out["gauges"] = gauges
    histograms: dict[str, dict[str, Any]] = {}
    prev_hists = prev.get("histograms") or {}
    for name, snap in (curr.get("histograms") or {}).items():
        before = prev_hists.get(name) or {}
        count_d = int(snap.get("count", 0)) - int(before.get("count", 0))
        if count_d <= 0:
            continue
        prev_buckets = before.get("buckets") or {}
        buckets = {}
        for key, n in (snap.get("buckets") or {}).items():
            d = int(n) - int(prev_buckets.get(key, 0))
            if d > 0:
                buckets[key] = d
        histograms[name] = {
            "buckets": buckets,
            "count": count_d,
            "total": int(snap.get("total", 0)) - int(before.get("total", 0)),
            "min": snap.get("min", 0),
            "max": snap.get("max", 0),
        }
    if histograms:
        out["histograms"] = histograms
    return out


@dataclass
class ShipperStats:
    """What shipping cost and achieved — kept OFF the shipped registry."""

    run_id: str = ""
    #: frames put on the wire (retransmits after a reconnect count again).
    frames_sent: int = 0
    #: frames evicted from the full client buffer — data the server will
    #: never see; nonzero drops mean merged totals undercount.
    frames_dropped: int = 0
    #: successful handshakes after the first (incarnation - 1).
    reconnects: int = 0
    #: failed connect attempts.
    connect_failures: int = 0
    #: highest seq the server confirmed merged.
    acked_seq: int = 0
    #: highest seq ever assigned (== frames produced).
    last_seq: int = 0
    #: frames still buffered (unacked) when the shipper closed.
    unacked_at_close: int = 0
    #: last socket/protocol error, for diagnostics.
    last_error: str = ""
    #: wall seconds the shipper was attached.
    attached_seconds: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def delivered(self) -> bool:
        """Did everything produced reach the server?"""
        return self.frames_dropped == 0 and self.acked_seq >= self.last_seq

    def to_json(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "frames_sent": self.frames_sent,
            "frames_dropped": self.frames_dropped,
            "reconnects": self.reconnects,
            "connect_failures": self.connect_failures,
            "acked_seq": self.acked_seq,
            "last_seq": self.last_seq,
            "unacked_at_close": self.unacked_at_close,
            "delivered": self.delivered,
            "last_error": self.last_error,
            "attached_seconds": round(self.attached_seconds, 6),
        }


def _auto_run_id(mode: str) -> str:
    return f"{mode}-{socket.gethostname()}-{os.getpid()}-{next(_run_counter)}"


class TelemetryShipper:
    """Ship registry snapshot deltas to a fleet aggregator, best-effort."""

    def __init__(
        self,
        sink: str,
        registry: TelemetryRegistry | NullRegistry,
        run_id: str = "",
        mode: str = "run",
        nprocs: int = 0,
        meta: Mapping[str, Any] | None = None,
        interval: float = DEFAULT_INTERVAL,
        buffer_frames: int = DEFAULT_BUFFER_FRAMES,
        retry: "RetryPolicy | None" = None,
        connect_timeout: float = 1.0,
        send_timeout: float = 0.5,
        drain_timeout: float = 1.0,
        clock=time.perf_counter,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if buffer_frames < 2:
            raise ValueError(f"buffer_frames must be >= 2, got {buffer_frames}")
        self.host, self.port = parse_sink(sink)
        self.registry = registry
        self.mode = mode
        self.nprocs = nprocs
        self.meta = dict(meta or {})
        self.interval = interval
        self.buffer_frames = buffer_frames
        self.retry = retry if retry is not None else _default_retry()
        self.connect_timeout = connect_timeout
        self.send_timeout = send_timeout
        self.drain_timeout = drain_timeout
        self.clock = clock
        self.stats = ShipperStats(run_id=run_id or _auto_run_id(mode))
        self._buffer: deque[dict[str, Any]] = deque()
        self._next_seq = 1
        self._sent_seq = 0
        self._incarnation = 0
        self._attempt = 0
        self._next_attempt = 0.0
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        self._prev_snapshot: dict[str, Any] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        self._event_cursor = 0
        self._t0 = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def run_id(self) -> str:
        return self.stats.run_id

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "TelemetryShipper":
        self._t0 = self.clock()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry-shipper", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> ShipperStats:
        """Stop shipping: final delta, ``end`` frame, bounded drain.

        Never blocks past ``drain_timeout`` + one socket timeout — a dead
        server cannot stall session teardown.  Idempotent: a second call
        returns the already-finalised stats untouched.
        """
        if self._closed:
            return self.stats
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._tick()  # final observation of the finished run
        self._enqueue(
            {
                "type": "end",
                "run_id": self.stats.run_id,
                "t": round(self.clock() - self._t0, 6),
                "frames_sent": self.stats.frames_sent,
                "frames_dropped": self.stats.frames_dropped,
                "reconnects": self.stats.reconnects,
            }
        )
        deadline = self.clock() + self.drain_timeout
        while self.stats.acked_seq < self._next_seq - 1:
            self._pump()
            if self.clock() >= deadline:
                break
            if self._sock is None and self._next_attempt > self.clock():
                # back off without spinning, but never past the deadline
                time.sleep(
                    min(0.01, max(0.0, deadline - self.clock()))
                )
            else:
                time.sleep(0.001)
        self.stats.unacked_at_close = len(self._buffer)
        self.stats.last_seq = self._next_seq - 1
        self.stats.attached_seconds = self.clock() - self._t0
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        return self.stats

    def __enter__(self) -> "TelemetryShipper":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # -- shipping loop -------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._tick()
            self._pump()

    def _tick(self) -> None:
        """Build one delta frame from the registry and enqueue it."""
        t = self.clock() - self._t0
        curr = self.registry.export_snapshot()
        delta = snapshot_delta(self._prev_snapshot, curr)
        self._prev_snapshot = curr
        chunks, self._event_cursor = drain_chunk_objects(
            self.registry, self._event_cursor, t
        )
        frame = {
            "type": "delta",
            "run_id": self.stats.run_id,
            "t": round(t, 6),
            "delta": delta,
            "sample": sample_object(self.registry, t),
            "chunks": chunks,
        }
        self._enqueue(frame)

    def _enqueue(self, frame: dict[str, Any]) -> None:
        frame["seq"] = self._next_seq
        self._next_seq += 1
        self.stats.last_seq = self._next_seq - 1
        self._buffer.append(frame)
        while len(self._buffer) > self.buffer_frames:
            self._buffer.popleft()
            self.stats.frames_dropped += 1

    # -- connection management -----------------------------------------------

    def _pump(self) -> None:
        """One best-effort network pass: connect, flush, collect acks."""
        if self._sock is None and not self._connect():
            return
        try:
            self._send_pending()
            self._read_acks()
        except (OSError, FrameError) as exc:
            self._disconnect(f"{type(exc).__name__}: {exc}")

    def _connect(self) -> bool:
        now = self.clock()
        if now < self._next_attempt:
            return False
        self._attempt += 1
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.settimeout(self.send_timeout)
            self._incarnation += 1
            sock.sendall(
                encode_frame(
                    {
                        "type": "hello",
                        "proto": PROTOCOL_VERSION,
                        "run_id": self.stats.run_id,
                        "incarnation": self._incarnation,
                        "mode": self.mode,
                        "nprocs": self.nprocs,
                        "pid": os.getpid(),
                        "meta": self.meta,
                    }
                )
            )
            decoder = FrameDecoder()
            welcome = None
            deadline = self.clock() + self.connect_timeout
            while welcome is None:
                if self.clock() > deadline:
                    raise TimeoutError("no welcome before handshake deadline")
                data = sock.recv(65536)
                if not data:
                    raise ConnectionError("server closed during handshake")
                for obj in decoder.feed(data):
                    if welcome is None:
                        welcome = obj
                    elif obj.get("type") == "ack":
                        self._handle_ack(obj)
            if welcome.get("type") != "welcome":
                raise FrameError(
                    f"expected welcome, got {welcome.get('type')!r}"
                )
            if int(welcome.get("proto", -1)) != PROTOCOL_VERSION:
                raise FrameError(
                    f"protocol mismatch: server speaks "
                    f"{welcome.get('proto')}, client {PROTOCOL_VERSION}"
                )
        except (OSError, FrameError) as exc:
            self.stats.connect_failures += 1
            self.stats.last_error = f"{type(exc).__name__}: {exc}"
            try:
                # sock is unbound when create_connection itself failed
                sock.close()
            except (OSError, UnboundLocalError):
                pass
            self._next_attempt = self.clock() + self.retry.delay(
                min(self._attempt - 1, 16)
            )
            return False
        self._sock = sock
        self._decoder = decoder
        self._attempt = 0
        self._next_attempt = 0.0
        if self._incarnation > 1:
            self.stats.reconnects += 1
        # everything unacked goes again; the server dedups on seq.
        self._sent_seq = self.stats.acked_seq
        return True

    def _disconnect(self, reason: str) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self.stats.last_error = reason
            self._next_attempt = self.clock() + self.retry.delay(0)
        self._sent_seq = self.stats.acked_seq

    def _send_pending(self) -> None:
        assert self._sock is not None
        for frame in list(self._buffer):
            if frame["seq"] <= self._sent_seq:
                continue
            self._sock.sendall(encode_frame(frame))
            self._sent_seq = frame["seq"]
            self.stats.frames_sent += 1

    def _read_acks(self) -> None:
        assert self._sock is not None
        while True:
            readable, _, _ = select.select([self._sock], [], [], 0)
            if not readable:
                return
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            for obj in self._decoder.feed(data):
                if obj.get("type") == "ack":
                    self._handle_ack(obj)
                # anything else from the server on a shipping connection
                # is ignorable (e.g. an error frame right before close).

    def _handle_ack(self, obj: Mapping[str, Any]) -> None:
        try:
            seq = int(obj.get("seq", 0))
        except (TypeError, ValueError):
            return
        if seq > self.stats.acked_seq:
            self.stats.acked_seq = seq
        while self._buffer and self._buffer[0]["seq"] <= self.stats.acked_seq:
            self._buffer.popleft()
