"""Length-prefixed, versioned JSON frame protocol for fleet telemetry.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object. The framing is symmetric —
shipper, server, and query clients all speak it — and deliberately dumb:
no compression, no binary tables, no partial frames. Telemetry deltas are
small (a few KB) and the registry merge on the other end is the clever
part; the wire's only jobs are message boundaries and versioning.

Frame types (the ``type`` key):

=============  =========  ====================================================
type           direction  payload
=============  =========  ====================================================
``hello``      c -> s     ``proto``, ``run_id``, ``incarnation``, ``mode``,
                          ``nprocs``, ``pid``, ``meta`` — opens a shipping
                          session; re-sent with ``incarnation + 1`` after
                          every reconnect.
``welcome``    s -> c     ``proto``, ``server`` — handshake accept. A proto
                          mismatch closes the connection instead.
``delta``      c -> s     ``seq``, ``t``, ``delta`` (a registry snapshot
                          *delta* — see :func:`repro.obs.agg.shipper.
                          snapshot_delta`), ``sample`` (cumulative progress
                          counters/gauges), ``chunks`` (fresh per-epoch
                          chunk flush records).
``end``        c -> s     ``seq``, ``t``, ``frames_sent``,
                          ``frames_dropped`` — the run finished cleanly.
``ack``        s -> c     ``seq`` — everything up to ``seq`` is merged; the
                          shipper may forget buffered frames ≤ ``seq``.
``query``      c -> s     ``what`` in {``fleet``, ``alerts``, ``run``,
                          ``server``}, optional ``run_id``.
``reply``      s -> c     ``what``, ``data`` — the query answer.
``error``      s -> c     ``message`` — protocol violation; connection
                          closes after it.
=============  =========  ====================================================

Sequencing: every buffered client frame carries a ``seq`` from one
monotonically increasing per-run counter. The server remembers the highest
merged ``seq`` per run *across reconnects* and silently ignores anything
at or below it, so the shipper's retransmit-after-reconnect policy is
exactly-once end to end: at-least-once delivery (frames stay buffered
until acked) + idempotent receive (seq dedup) + commutative merge.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterable, Mapping

__all__ = [
    "FrameError",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "QUERY_WHAT",
    "encode_frame",
    "validate_frame",
]

#: bumped on any incompatible frame-shape change; hello/welcome carry it.
PROTOCOL_VERSION = 1

#: a frame larger than this is a protocol violation, not a big message.
MAX_FRAME_BYTES = 4 << 20

#: the query targets the server answers.
QUERY_WHAT = ("fleet", "alerts", "run", "server")

_LEN = struct.Struct(">I")

#: frame types that must carry a ``seq`` (the buffered, acked kinds).
_SEQUENCED = ("delta", "end")

_KNOWN_TYPES = (
    "hello", "welcome", "delta", "end", "ack", "query", "reply", "error",
)


class FrameError(ValueError):
    """A frame violated the protocol (oversize, bad JSON, bad shape)."""


def encode_frame(obj: Mapping[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON payload."""
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser: feed bytes, get decoded frame objects.

    Stream-safe: partial frames stay buffered across :meth:`feed` calls.
    A malformed stream raises :class:`FrameError` — by then the peer is
    not speaking this protocol and the connection should close.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        self._buffer.extend(data)
        frames: list[dict[str, Any]] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"announced frame of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit"
                )
            end = _LEN.size + length
            if len(self._buffer) < end:
                return frames
            payload = bytes(self._buffer[_LEN.size:end])
            del self._buffer[:end]
            try:
                obj = json.loads(payload.decode("utf-8"))
            except ValueError as exc:
                raise FrameError(f"frame payload is not JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise FrameError("frame payload is not a JSON object")
            frames.append(obj)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def validate_frame(obj: Any) -> list[str]:
    """Shape-check one decoded frame; returns problem strings.

    The server calls this before dispatching (a bad frame earns an
    ``error`` reply, not an exception), and the wire tests pin the schema
    with it.
    """
    problems: list[str] = []
    if not isinstance(obj, Mapping):
        return ["frame is not an object"]
    kind = obj.get("type")
    if kind not in _KNOWN_TYPES:
        return [f"unknown frame type {kind!r}"]
    if kind in _SEQUENCED:
        seq = obj.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq <= 0:
            problems.append(f"{kind}: seq missing or not a positive int")
    if kind == "hello":
        if not isinstance(obj.get("proto"), int):
            problems.append("hello: proto missing")
        if not isinstance(obj.get("run_id"), str) or not obj.get("run_id"):
            problems.append("hello: run_id missing or empty")
        inc = obj.get("incarnation")
        if not isinstance(inc, int) or isinstance(inc, bool) or inc < 1:
            problems.append("hello: incarnation missing or < 1")
        if not isinstance(obj.get("meta", {}), Mapping):
            problems.append("hello: meta is not an object")
    elif kind == "welcome":
        if not isinstance(obj.get("proto"), int):
            problems.append("welcome: proto missing")
    elif kind == "delta":
        delta = obj.get("delta")
        if not isinstance(delta, Mapping):
            problems.append("delta: delta snapshot missing")
        else:
            for key in ("counters", "gauges", "histograms"):
                if key in delta and not isinstance(delta[key], Mapping):
                    problems.append(f"delta.{key}: not an object")
        if not isinstance(obj.get("chunks", []), list):
            problems.append("delta: chunks is not a list")
        if not isinstance(obj.get("sample", {}), Mapping):
            problems.append("delta: sample is not an object")
    elif kind == "ack":
        if not isinstance(obj.get("seq"), int):
            problems.append("ack: seq missing")
    elif kind == "query":
        if obj.get("what") not in QUERY_WHAT:
            problems.append(
                f"query: what must be one of {QUERY_WHAT}, "
                f"got {obj.get('what')!r}"
            )
        if obj.get("what") == "run" and not obj.get("run_id"):
            problems.append("query: run queries need run_id")
    elif kind == "reply":
        if "data" not in obj:
            problems.append("reply: data missing")
    return problems


def validate_frames(objs: Iterable[Any]) -> list[str]:
    """Validate a frame sequence (test helper)."""
    problems: list[str] = []
    for i, obj in enumerate(objs):
        problems.extend(f"frame {i}: {p}" for p in validate_frame(obj))
    return problems
