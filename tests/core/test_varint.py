"""Varint / zig-zag serialization round trips and format errors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import varint
from tests.core import oracles
from repro.errors import RecordFormatError


class TestZigZag:
    @pytest.mark.parametrize(
        "value,expected", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)]
    )
    def test_small_values_interleave(self, value, expected):
        assert varint.zigzag_encode(value) == expected


class TestUvarint:
    @given(st.integers(0, 2**63 - 1))
    def test_roundtrip(self, value):
        buf = bytearray()
        varint.encode_uvarint(value, buf)
        decoded, end = varint.decode_uvarint(bytes(buf), 0)
        assert decoded == value
        assert end == len(buf)

    def test_single_byte_boundary(self):
        buf = bytearray()
        varint.encode_uvarint(127, buf)
        assert len(buf) == 1
        buf2 = bytearray()
        varint.encode_uvarint(128, buf2)
        assert len(buf2) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint.encode_uvarint(-1, bytearray())

    def test_truncated_raises(self):
        buf = bytearray()
        varint.encode_uvarint(1 << 40, buf)
        with pytest.raises(RecordFormatError):
            varint.decode_uvarint(bytes(buf[:-1]), 0)

    def test_unterminated_raises(self):
        with pytest.raises(RecordFormatError):
            varint.decode_uvarint(b"\x80" * 30, 0)
        # nine bytes are the longest value; a terminated tenth is refused too
        assert varint.decode_uvarint(b"\xff" * 8 + b"\x7f", 0) == (2**63 - 1, 9)
        with pytest.raises(RecordFormatError, match="varint too long"):
            varint.decode_uvarint(b"\xff" * 9 + b"\x01", 0)

    @given(st.integers(0, 2**40))
    def test_size_prediction_matches(self, value):
        buf = bytearray()
        varint.encode_uvarint(value, buf)
        assert varint.uvarint_size(value) == len(buf)


class TestSvarint:
    @given(st.integers(-(2**62), 2**62 - 1))
    def test_roundtrip(self, value):
        buf = bytearray()
        oracles.encode_svarint(value, buf)
        decoded, end = oracles.decode_svarint(bytes(buf), 0)
        assert decoded == value
        assert end == len(buf)

    def test_small_magnitudes_cost_one_byte(self):
        for v in range(-64, 64):
            buf = bytearray()
            oracles.encode_svarint(v, buf)
            assert len(buf) == 1, v

    @given(st.integers(-(2**40), 2**40))
    def test_size_prediction_matches(self, value):
        buf = bytearray()
        oracles.encode_svarint(value, buf)
        assert oracles.svarint_size(value) == len(buf)


class TestArrays:
    @given(st.lists(st.integers(0, 2**40), max_size=50))
    def test_uvarint_array_roundtrip(self, values):
        data = varint.encode_uvarint_array(values)
        decoded, end = oracles.decode_uvarint_array(data, 0)
        assert decoded == values
        assert end == len(data)

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=50))
    def test_svarint_array_roundtrip(self, values):
        data = varint.encode_svarint_array(values)
        decoded, end = oracles.decode_svarint_array(data, 0)
        assert decoded == values
        assert end == len(data)

    def test_concatenated_arrays_decode_sequentially(self):
        a = varint.encode_uvarint_array([1, 2, 3])
        b = varint.encode_svarint_array([-5, 5])
        data = a + b
        first, off = oracles.decode_uvarint_array(data, 0)
        second, end = oracles.decode_svarint_array(data, off)
        assert first == [1, 2, 3] and second == [-5, 5] and end == len(data)

    @given(st.lists(st.integers(-(2**30), 2**30), max_size=40))
    def test_payload_size_accounting(self, values):
        data = varint.encode_svarint_array(values)
        assert oracles.array_payload_size(values, signed=True) == len(data)
