"""Batch kernels vs scalar reference: byte identity and losslessness.

The contract of :mod:`repro.core.kernels` is that the batched numpy paths
are *indistinguishable* from the scalar producers — identical bytes out of
the encoders, identical values out of the decoders — for every value of the
format (magnitude below ``kernels.VALUE_LIMIT``, at most nine bytes as a
varint); which of the two runs is picked from the input's length
(``varint.KERNEL_MIN_VALUES``), so every property here runs under both.
Hypothesis drives the distributions the format actually sees (zeros, small
signed residuals, clocks up to the limit) plus the int64 boundaries the
zig-zag map is defined on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core import lp_encoding
from repro.core import varint
from repro.core.varint import (
    encode_svarint_array,
    encode_uvarint_array,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import RecordFormatError
from tests.core import oracles
from tests.core.oracles import (
    decode_svarint_array_scalar,
    decode_uvarint_array_scalar,
    encode_svarint_array_scalar,
    encode_uvarint_array_scalar,
    svarint_size,
)

LIMIT = kernels.VALUE_LIMIT
# distributions matching what the chunk format sees: LP residuals cluster
# around zero, clocks span the range up to the limit, plus >2-byte varints
small_signed = st.integers(min_value=-64, max_value=63)
full_signed = st.integers(min_value=-(2**63), max_value=2**63 - 1)
stored_signed = st.integers(min_value=1 - LIMIT, max_value=LIMIT - 1)
stored_unsigned = st.integers(min_value=0, max_value=LIMIT - 1)
#: what nine bytes hold: every unsigned value a reader can meet
nine_bytes = st.integers(min_value=0, max_value=2**63 - 1)

signed_lists = st.one_of(
    st.lists(small_signed, max_size=300),
    st.lists(stored_signed, max_size=100),
    st.lists(st.one_of(small_signed, stored_signed), max_size=60),
)
unsigned_lists = st.one_of(
    st.lists(st.integers(min_value=0, max_value=200), max_size=300),
    st.lists(stored_unsigned, max_size=100),
)


def both_producers(fn) -> list:
    """``fn()`` with every run on the kernels, then with every run on the
    scalar steps: the two results."""
    results = []
    for threshold in (0, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(varint, "KERNEL_MIN_VALUES", threshold)
            results.append(fn())
    return results


class TestZigzag:
    @given(full_signed)
    def test_fast_path_matches_big_within_int64(self, value):
        # the map by its arithmetic definition, on unbounded ints
        assert zigzag_encode(value) == (value << 1 if value >= 0 else ((-value) << 1) - 1)

    def test_boundary_consistency(self):
        """The map is a bijection at and around the int64 boundary, the
        whole domain it is defined on."""
        boundary = [
            -(1 << 63), -(1 << 63) + 1, (1 << 63) - 2, (1 << 63) - 1,
            -LIMIT, LIMIT, 0, -1, 1,
        ]
        for v in boundary:
            assert zigzag_decode(zigzag_encode(v)) == v
        # order of |v| preserved, onto [0, 2**64)
        encoded = sorted(zigzag_encode(v) for v in boundary)
        assert len(set(encoded)) == len(boundary) and 0 <= encoded[0] and encoded[-1] < 1 << 64

    @given(st.lists(full_signed, max_size=200))
    def test_array_matches_scalar(self, values):
        z = np.array([zigzag_encode(v) for v in values], dtype=np.uint64)
        assert kernels.zigzag_decode_array(z).tolist() == values


class TestSvarintFastPath:
    """encode_svarint / svarint_size over what nine bytes hold."""

    @given(st.integers(-(2**62), 2**62 - 1))
    def test_scalar_svarint_round_trip(self, value):
        out = bytearray()
        oracles.encode_svarint(value, out)
        decoded, pos = oracles.decode_svarint(bytes(out), 0)
        assert decoded == value and pos == len(out)
        assert svarint_size(value) == len(out) <= kernels.MAX_VARINT_LEN

    @given(st.one_of(st.integers(LIMIT, 2**62 - 1), st.integers(-(2**62), -LIMIT)))
    def test_big_values_still_exact(self, value):
        # past the limit a writer holds itself to, inside what nine bytes
        # hold: a reader that meets one gets the value, not a wrapped one
        out = bytearray()
        oracles.encode_svarint(value, out)
        assert oracles.decode_svarint(bytes(out), 0)[0] == value


class TestBatchByteIdentity:
    @given(unsigned_lists)
    @settings(max_examples=200)
    def test_uvarint_encode_identical(self, values):
        expected = encode_uvarint_array_scalar(values)
        assert both_producers(lambda: encode_uvarint_array(values)) == [expected, expected]

    @given(signed_lists)
    @settings(max_examples=200)
    def test_svarint_encode_identical(self, values):
        expected = encode_svarint_array_scalar(values)
        assert both_producers(lambda: encode_svarint_array(values)) == [expected, expected]

    @given(unsigned_lists)
    @settings(max_examples=200)
    def test_uvarint_round_trip(self, values):
        def check():
            buf = encode_uvarint_array(values)
            assert decode_uvarint_array_scalar(buf, 0) == (values, len(buf))
            unsigned, _, ends = varint.decode_varint_stream(buf, 0)
            assert unsigned == [len(values), *values] and ends[-1] == len(buf) - 1

        both_producers(check)

    @given(signed_lists)
    @settings(max_examples=200)
    def test_svarint_round_trip(self, values):
        def check():
            buf = encode_svarint_array(values)
            assert decode_svarint_array_scalar(buf, 0) == (values, len(buf))
            _, signed, ends = varint.decode_varint_stream(buf, 0)
            assert signed[1:] == values and ends[-1] == len(buf) - 1

        both_producers(check)

    @given(st.lists(stored_unsigned, max_size=50), st.binary(max_size=20))
    def test_decode_at_offset_with_trailing_bytes(self, values, suffix):
        prefix = b"\xff\x01"  # a 2-byte varint before the array
        buf = prefix + encode_uvarint_array(values) + suffix

        def check():
            unsigned, _, ends = varint.decode_varint_stream(buf, len(prefix))
            assert unsigned[: len(values) + 1] == [len(values), *values]
            assert ends[len(values)] == len(buf) - len(suffix) - 1

        both_producers(check)

    def test_ndarray_input_matches_list_input(self):
        values = [0, 1, -1, 300, -300, 2**40, -(2**40)]
        arr = np.array(values, dtype=np.int64)
        assert encode_svarint_array(arr) == encode_svarint_array(values)
        uvals = [0, 5, 127, 128, 2**59, LIMIT - 1]
        uarr = np.array(uvals, dtype=np.uint64)
        assert encode_uvarint_array(uarr) == encode_uvarint_array(uvals)

    def test_negative_raises_like_scalar(self):
        def check():
            with pytest.raises(ValueError, match="uvarint requires value >= 0"):
                encode_uvarint_array([1, 2, -3])
            with pytest.raises(ValueError, match="uvarint requires value >= 0"):
                encode_uvarint_array(np.array([1, 2, -3], dtype=np.int64))

        both_producers(check)

    def test_truncated_raises(self):
        buf = encode_uvarint_array([1, 300, 70000])
        for cut in range(1, len(buf)):
            with pytest.raises(RecordFormatError):
                decode_uvarint_array_scalar(buf[:cut], 0)
            # the stream reader leaves the cut value out; its walker raises
            for unsigned, _, _ in both_producers(lambda: varint.decode_varint_stream(buf[:cut], 0)):
                assert unsigned == [3, 1, 300, 70000][: len(unsigned)] and len(unsigned) < 4

    @given(st.lists(stored_unsigned, max_size=120))
    def test_size_accounting_matches_bytes(self, values):
        assert oracles.array_payload_size(values, signed=False) == len(
            encode_uvarint_array(values)
        )

    @given(st.lists(stored_signed, max_size=120))
    def test_signed_size_accounting_matches_bytes(self, values):
        assert oracles.array_payload_size(values, signed=True) == len(
            encode_svarint_array(values)
        )


class TestLPAuto:
    @given(st.lists(st.integers(min_value=-(2**48), max_value=2**48), max_size=200))
    def test_lp_auto_matches_scalar(self, values):
        enc = oracles.lp_encode_auto(values)
        as_list = enc.tolist() if isinstance(enc, np.ndarray) else enc
        assert as_list == lp_encoding.lp_encode(values)
        dec = oracles.lp_decode_auto(enc)
        as_list = dec.tolist() if isinstance(dec, np.ndarray) else dec
        assert as_list == values

    def test_lp_decode_overflow_guard(self):
        # residuals whose reconstruction crosses int64: the float64 shadow
        # must reroute to the exact scalar path instead of wrapping
        errors = [2**62, 2**62, 2**62]
        decoded = oracles.lp_decode_auto(errors)
        assert decoded == oracles.lp_decode(errors)
        assert decoded[-1] == 3 * 2**62 + 2 * 2**62 + 2**62  # > 2**63


class TestStreamKernels:
    """The whole-stream entry points the CDC frame path is built on."""

    @given(st.lists(st.tuples(st.booleans(), st.booleans(),
                              st.lists(st.integers(-(2**59), 2**59), max_size=8)),
                    max_size=10))
    def test_stream_to_unsigned_matches_per_segment_scalar(self, segments):
        # every segment behind a one-value unsigned prefix, as in a chunk
        flat, flags, lengths, expected = [], [], [], []
        for signed, lp, body in segments:
            signed = signed or lp  # residuals go negative: LP columns are signed
            if not signed:
                body = [abs(v) for v in body]
            flat += [len(body), *body]
            flags += [0, signed * varint.SIGNED | lp * varint.LP]
            lengths += [1, len(body)]
            coded = lp_encoding.lp_encode(body) if lp else body
            expected += [len(body), *(map(zigzag_encode, coded) if signed else coded)]
        flags = np.array(flags, dtype=np.uint8)
        # both producers: the scalar steps a short stream takes, and the
        # kernel (one array) from KERNEL_MIN_VALUES values on
        for threshold in (len(flat) + 1, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(varint, "KERNEL_MIN_VALUES", threshold)
                fast = varint.stream_to_unsigned(flat, flags, lengths)
            assert isinstance(fast, np.ndarray) == (threshold == 0)
            assert list(fast) == expected
            assert varint.encode_uvarint_stream(fast) == varint.encode_uvarint_stream(expected)
            assert varint.uvarint_stream_sizes(fast).tolist() == (
                varint.uvarint_stream_sizes(expected).tolist()
            )

    def test_stream_negative_at_unsigned_position_raises(self):
        flags = np.array([0, varint.SIGNED, 0], np.uint8)
        # from whichever producer the stream's length picks: the scalar one
        # raises where it packs the value, the kernel before it packs any
        for pad in (0, varint.KERNEL_MIN_VALUES):
            with pytest.raises(ValueError, match="uvarint requires value >= 0, got -7"):
                varint.encode_uvarint_stream(
                    varint.stream_to_unsigned([0] * pad + [1, -3, -7], flags, [pad + 1, 1, 1])
                )

    @given(st.lists(nine_bytes, max_size=100), st.binary(max_size=3))
    def test_decode_stream_matches_scalar(self, values, prefix):
        # the array encoding's length prefix is just one more value of the stream
        buf = prefix + encode_uvarint_array_scalar(values)
        expected, last_bytes, pos = [], [], len(prefix)
        while pos < len(buf):
            value, pos = varint.decode_uvarint(buf, pos)
            expected.append(value)
            last_bytes.append(pos - 1)
        for threshold in (len(buf) + 1, 0):  # the scalar loop, the kernel
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(varint, "KERNEL_MIN_VALUES", threshold)
                unsigned, signed, ends = varint.decode_varint_stream(buf, len(prefix))
            assert unsigned == expected
            assert signed == [zigzag_decode(v) for v in expected]
            assert list(ends) == last_bytes

    def test_decode_stream_leaves_out_a_dangling_tail(self):
        # cut short; unterminated; ten bytes — not a value — and one behind it
        for tail in (b"\x80", b"\xff" * 30, b"\x80" * 9 + b"\x01\x07"):
            for filler in (b"", b"\x00" * varint.KERNEL_MIN_VALUES):  # scalar, kernel
                unsigned, _, ends = varint.decode_varint_stream(filler + b"\x05\x81\x01" + tail, 0)
                assert unsigned[len(filler) :] == [5, 129]
                assert list(ends)[len(filler) :] == [len(filler), len(filler) + 2]

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=60))
    def test_sizes_bounded_by_the_maximum_still_match_scalar(self, values):
        sizes = kernels.uvarint_sizes(np.array(values, dtype=np.uint64))
        assert sizes.tolist() == [varint.uvarint_size(v) for v in values]


class TestForcedScalarEquivalence:
    """End-to-end: which producer a run takes must not change one byte."""

    def test_compress_bytes_identical(self):
        import random

        from repro.core import ALL_METHODS, compress
        from repro.core.events import MFKind, MFOutcome, ReceiveEvent

        rng = random.Random(5)
        clocks = {s: 0 for s in range(6)}
        outs = []
        for i in range(2000):
            if rng.random() < 0.15:
                outs.append(MFOutcome("a", MFKind.TEST, ()))
                continue
            s = rng.randrange(6)
            clocks[s] += rng.randrange(1, 4)
            outs.append(
                MFOutcome(
                    f"cs{i % 2}",
                    MFKind.TEST,
                    (ReceiveEvent(s, clocks[s] * 6 + s),),
                )
            )
        by_length = {m: compress(outs, m, 256) for m in ALL_METHODS}
        assert both_producers(lambda: {m: compress(outs, m, 256) for m in ALL_METHODS}) == [
            by_length, by_length
        ]

    def test_deserialize_scalar_path_round_trips(self):
        from repro.core import build_columnar_tables, encode_table
        from repro.core.events import MFKind, MFOutcome, ReceiveEvent
        from repro.core.formats import deserialize_cdc_chunks, serialize_cdc_chunks

        outs = [
            MFOutcome("x", MFKind.TEST, (ReceiveEvent(r % 3, 10 * r + 7),))
            for r in range(50)
        ]
        tables = build_columnar_tables(outs)
        chunks = [encode_table(t, replay_assist=a) for ts in tables.values() for t in ts
                  for a in (False, True)]
        blob = serialize_cdc_chunks(chunks)
        assert both_producers(lambda: serialize_cdc_chunks(chunks)) == [blob, blob]
        assert both_producers(lambda: deserialize_cdc_chunks(blob)) == [chunks, chunks]
