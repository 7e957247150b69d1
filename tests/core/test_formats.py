"""Binary formats: bit packing, RE tables, CDC chunks, corruption handling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core import kernels
from repro.core.events import QuintupleRow, ReceiveEvent
from repro.core.formats import (
    ROW_BITS,
    deserialize_cdc_chunks,
    serialize_cdc_chunks,
    serialize_raw_rows,
    serialize_re_tables,
)
from repro.errors import RecordFormatError
from tests.core.oracles import deserialize_raw_rows, deserialize_re_tables
from tests.core.test_pipeline import encode_chunk, random_events, table_of


class TestBitPacking:
    """The Figure 4 rows go through the bit-plane helpers the CDC frames use
    (``kernels.to_bits`` / ``packbits`` and back): same bytes as the per-bit
    writer they replaced."""

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 24)), max_size=40))
    def test_writer_reader_roundtrip(self, fields):
        planes = [kernels.to_bits([value], bits) for value, bits in fields]
        packed = kernels.packbits(np.concatenate(planes)) if planes else b""
        assert len(packed) == (sum(bits for _, bits in fields) + 7) // 8
        unpacked, start = kernels.unpackbits(packed, 0, len(packed)), 0
        for value, bits in fields:
            field = unpacked[start : start + bits]
            # high bit first, as the writer shifted them in
            assert field.tolist() == [int(b) for b in format(value % (1 << bits), f"0{bits}b")]
            assert kernels.from_bits(field, 1, bits).tolist() == [value % (1 << bits)]
            start += bits
        assert not unpacked[start:].any()

    def test_value_too_wide_rejected(self):
        for row in (
            QuintupleRow(1, True, False, 2**32, 5),
            QuintupleRow(2**64, True, False, 1, 5),
            QuintupleRow(1, True, False, 1, -5),
        ):
            with pytest.raises(ValueError, match="does not fit"):
                serialize_raw_rows([row])

    def test_read_past_end_raises(self):
        data = serialize_raw_rows([QuintupleRow(1, True, False, 2, 5)] * 3)
        for cut in range(5, len(data)):
            with pytest.raises(RecordFormatError, match="truncated"):
                deserialize_raw_rows(data[:cut])
        # a row count no byte backs up is refused before anything is unpacked
        with pytest.raises(RecordFormatError, match="truncated"):
            deserialize_raw_rows(data[:4] + b"\xff\xff\xff\xff\x7f")

    def test_row_bytes_are_the_per_bit_writers(self):
        """The exact bytes the old ``BitWriter`` produced for one row."""
        row = QuintupleRow(3, True, True, 7, 2**40 + 1)
        bits = (
            format(3, "064b") + "1" + "1" + format(7, "032b") + format(2**40 + 1, "064b")
        ).ljust(168, "0")
        expected = int(bits, 2).to_bytes(21, "big")
        assert serialize_raw_rows([row]) == b"CDR0\x01" + expected


class TestRawFormat:
    def rows(self):
        return [
            QuintupleRow(1, True, False, 0, 2),
            QuintupleRow(2, False, None, None, None),
            QuintupleRow(1, True, True, 0, 13),
            QuintupleRow(1, True, False, 2, 8),
        ]

    def test_roundtrip(self):
        rows = self.rows()
        assert deserialize_raw_rows(serialize_raw_rows(rows)) == rows

    def test_row_costs_paper_bits(self):
        assert ROW_BITS == 162
        assert ROW_BITS * len(self.rows()) == 4 * 162

    def test_payload_size_matches_bit_accounting(self):
        rows = self.rows()
        data = serialize_raw_rows(rows)
        header = 4 + 1  # magic + count varint
        assert len(data) - header == (ROW_BITS * len(rows) + 7) // 8

    def test_bad_magic_rejected(self):
        data = serialize_raw_rows(self.rows())
        with pytest.raises(RecordFormatError):
            deserialize_raw_rows(b"XXXX" + data[4:])

    def test_truncation_rejected(self):
        data = serialize_raw_rows(self.rows())
        with pytest.raises(RecordFormatError):
            deserialize_raw_rows(data[:-3])


class TestREFormat:
    def tables(self):
        return [
            table_of(
                [ReceiveEvent(0, 2), ReceiveEvent(1, 8)],
                with_next=(0,),
                unmatched=((1, 3),),
                callsite="a",
            ),
            table_of([ReceiveEvent(2, 5)], callsite="b"),
        ]

    def test_roundtrip(self):
        tables = self.tables()
        assert deserialize_re_tables(serialize_re_tables(tables)) == tables

    def test_bad_magic_rejected(self):
        data = serialize_re_tables(self.tables())
        with pytest.raises(RecordFormatError):
            deserialize_re_tables(b"ZZZZ" + data[4:])


class TestCDCFormat:
    @given(
        st.integers(1, 5),
        st.integers(0, 40),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=120)
    def test_roundtrip_random_chunks(self, senders, n, seed, assist):
        events = random_events(senders, max(n, 0), seed)
        unmatched = ((0, 2),) if n else ()
        chunk = encode_chunk(
            table_of(events, unmatched=unmatched), replay_assist=assist
        )
        back = deserialize_cdc_chunks(serialize_cdc_chunks([chunk]))
        assert back == [chunk]

    def test_multi_chunk_multi_callsite(self):
        chunks = [
            encode_chunk(table_of(random_events(3, 10, 1), callsite="a")),
            encode_chunk(table_of(random_events(2, 5, 2), callsite="b")),
            encode_chunk(table_of(random_events(3, 7, 3), callsite="a")),
        ]
        back = deserialize_cdc_chunks(serialize_cdc_chunks(chunks))
        assert back == chunks

    def test_empty_chunk_list(self):
        assert deserialize_cdc_chunks(serialize_cdc_chunks([])) == []

    def test_truncated_stream_rejected(self):
        data = serialize_cdc_chunks(
            [encode_chunk(table_of(random_events(2, 9, 4)))]
        )
        with pytest.raises(RecordFormatError):
            deserialize_cdc_chunks(data[: len(data) // 2])

    def test_bad_magic_rejected(self):
        with pytest.raises(RecordFormatError):
            deserialize_cdc_chunks(b"NOPE")

    def test_identity_order_chunk_is_tiny(self):
        """An in-order chunk stores no permutation rows: size is dominated
        by the per-sender epoch/count/min tables."""
        events = [ReceiveEvent(0, c) for c in range(1, 101)]
        chunk = encode_chunk(table_of(events))
        data = serialize_cdc_chunks([chunk])
        assert chunk.diff.is_identity()
        assert len(data) < 40  # vs 100 * 20+ bytes raw

    def test_fuzzed_corruption_never_crashes_uncontrolled(self):
        """Bit flips either decode to something or raise RecordFormatError —
        never an arbitrary exception."""
        base = serialize_cdc_chunks(
            [encode_chunk(table_of(random_events(3, 20, 7)), replay_assist=True)]
        )
        rng = random.Random(0)
        for _ in range(200):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                deserialize_cdc_chunks(bytes(data))
            except RecordFormatError:
                pass
            except Exception as exc:  # noqa: BLE001
                # permutation/table inconsistencies surface as DecodingError
                # subclasses too; anything else is a bug
                from repro.errors import DecodingError

                assert isinstance(exc, DecodingError) or isinstance(
                    exc, (ValueError, UnicodeDecodeError)
                ), exc
