"""Wire protocol for fleet telemetry: framing, incremental decode, schema.

The protocol is four bytes of big-endian length followed by compact
JSON.  Everything the aggregator trusts about a peer flows through
``FrameDecoder`` + ``validate_frame``, so these tests pin both the byte
layout and the per-type shape rules.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.obs.agg import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    encode_frame,
    validate_frame,
    validate_frames,
)


def _hello(**over):
    frame = {
        "type": "hello",
        "proto": PROTOCOL_VERSION,
        "run_id": "r1",
        "incarnation": 1,
        "mode": "record",
        "meta": {},
    }
    frame.update(over)
    return frame


class TestFraming:
    def test_round_trip_one_frame(self):
        payload = {"type": "ack", "seq": 7}
        blob = encode_frame(payload)
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4
        dec = FrameDecoder()
        assert dec.feed(blob) == [payload]
        assert dec.pending_bytes == 0

    def test_compact_json_on_the_wire(self):
        blob = encode_frame({"type": "ack", "seq": 1})
        assert b": " not in blob and b", " not in blob

    def test_many_frames_in_one_feed(self):
        frames = [{"type": "ack", "seq": i} for i in range(1, 6)]
        blob = b"".join(encode_frame(f) for f in frames)
        assert FrameDecoder().feed(blob) == frames

    def test_byte_at_a_time_feed(self):
        frames = [_hello(), {"type": "ack", "seq": 3}]
        blob = b"".join(encode_frame(f) for f in frames)
        dec = FrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(dec.feed(blob[i : i + 1]))
        assert out == frames
        assert dec.pending_bytes == 0

    def test_split_mid_header_and_mid_body(self):
        blob = encode_frame({"type": "ack", "seq": 99})
        dec = FrameDecoder()
        assert dec.feed(blob[:2]) == []       # half the length prefix
        assert dec.pending_bytes == 2
        assert dec.feed(blob[2:10]) == []     # header + partial body
        assert dec.feed(blob[10:]) == [{"type": "ack", "seq": 99}]

    def test_oversize_encode_rejected(self):
        big = {"type": "delta", "blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(FrameError):
            encode_frame(big)

    def test_oversize_decode_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError):
            FrameDecoder().feed(header)

    def test_bad_json_body_rejected(self):
        body = b"{not json"
        blob = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError):
            FrameDecoder().feed(blob)

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        blob = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError):
            FrameDecoder().feed(blob)


class TestFrameSchema:
    def test_good_hello(self):
        assert validate_frame(_hello()) == []

    def test_hello_missing_fields(self):
        problems = "; ".join(validate_frame({"type": "hello"}))
        assert "proto missing" in problems
        assert "run_id missing" in problems
        assert "incarnation missing" in problems

    def test_hello_incarnation_must_be_positive_int(self):
        assert validate_frame(_hello(incarnation=0))
        assert validate_frame(_hello(incarnation=True))

    def test_unknown_type(self):
        assert validate_frame({"type": "gossip"}) == [
            "unknown frame type 'gossip'"
        ]

    def test_non_object_frame(self):
        assert validate_frame("hi") == ["frame is not an object"]

    def test_sequenced_frames_need_positive_seq(self):
        for kind in ("delta", "end"):
            base = {"type": kind, "run_id": "r", "delta": {}}
            assert not any(
                "seq" in p for p in validate_frame(dict(base, seq=1))
            )
            for bad in (0, -2, "3", True, None):
                assert any(
                    "seq" in p for p in validate_frame(dict(base, seq=bad))
                ), (kind, bad)

    def test_delta_shape(self):
        good = {
            "type": "delta", "run_id": "r", "seq": 1,
            "delta": {"counters": {"sim.events": 3}},
            "sample": {}, "chunks": [],
        }
        assert validate_frame(good) == []
        assert validate_frame(dict(good, delta=None))
        assert validate_frame(dict(good, delta={"counters": [1]}))
        assert validate_frame(dict(good, chunks={}))

    def test_query_shape(self):
        assert validate_frame({"type": "query", "what": "fleet"}) == []
        assert validate_frame(
            {"type": "query", "what": "run", "run_id": "r1"}
        ) == []
        assert validate_frame({"type": "query", "what": "run"})
        assert validate_frame({"type": "query", "what": "everything"})

    def test_reply_needs_data(self):
        assert validate_frame({"type": "reply", "data": None}) == []
        assert validate_frame({"type": "reply"})

    def test_validate_frames_prefixes_index(self):
        problems = validate_frames([_hello(), {"type": "nope"}])
        assert problems == ["frame 1: unknown frame type 'nope'"]


class TestRetiredHealthFrame:
    """``health`` left the protocol with the encoder pools: it is an
    unknown type like any other, and a peer that still sends one loses
    its connection but none of the run's merged ``delta``/``end`` state."""

    HEALTH = {"type": "health", "run_id": "r1", "seq": 2, "health": {}}

    def test_health_is_an_unknown_type(self):
        assert validate_frame(self.HEALTH) == ["unknown frame type 'health'"]

    def exchange(self, server, frames):
        """Send ``frames`` on one connection; decoded replies until EOF."""
        import socket

        decoder, replies = FrameDecoder(), []
        with socket.create_connection((server.host, server.port), 5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(b"".join(encode_frame(f) for f in frames))
            sock.shutdown(socket.SHUT_WR)
            while data := sock.recv(65536):
                replies.extend(decoder.feed(data))
        return replies

    def test_rejected_without_disturbing_run_accounting(self):
        from repro.obs.agg import AggregatorServer

        delta = {
            "type": "delta", "run_id": "r1", "seq": 1, "t": 0.1,
            "delta": {"counters": {"sim.events": 40}},
            "sample": {}, "chunks": [],
        }
        end = {
            "type": "end", "run_id": "r1", "seq": 2, "t": 0.2,
            "frames_sent": 2, "frames_dropped": 0,
        }
        with AggregatorServer() as server:
            replies = self.exchange(server, [_hello(), delta, self.HEALTH])
            assert [r["type"] for r in replies] == ["welcome", "error"]
            assert "unknown frame type 'health'" in replies[1]["message"]
            run = server.state.runs["r1"]
            assert (run.last_seq, run.frames_merged) == (1, 1)
            # the old peer reconnects and finishes: seq 2 is still free
            replies = self.exchange(server, [_hello(incarnation=2), end])
            assert [r["type"] for r in replies] == ["welcome", "ack"]
            assert replies[1]["seq"] == 2
            assert server.aggregator.protocol_errors == 1
        assert (run.last_seq, run.frames_merged, run.frames_deduped) == (2, 2, 0)
        assert run.ended
        assert run.registry.counters() == {"sim.events": 40}
