"""Binary record formats: raw baseline, RE-only, and full CDC chunks.

Three on-storage layouts back the Figure 13 comparison:

* **Raw** (``w/o Compression``): the Figure 4 quintuple rows bit-packed at
  the paper's field widths — count 64 b, flag 1 b, with_next 1 b, rank 32 b,
  clock 64 b = 162 bits/row.
* **RE**: the Figure 6 decomposition with the ``(rank, clock)`` identifier
  columns still present, as varint arrays.
* **CDC**: the Figure 8 format — permutation difference, with_next,
  unmatched-test and epoch tables, with every monotone index column passed
  through the Eq. 3 linear predictor before varint packing.

All layouts are self-describing streams; gzip (zlib) is applied on top by
:mod:`repro.core.compression` where the method calls for it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.epoch import EpochLine
from repro.core.events import QuintupleRow, ReceiveEvent
from repro.core.lp_encoding import lp_decode_exact
from repro.core.permutation import PermutationDiff
from repro.core.pipeline import CDCChunk
from repro.core.record_table import RecordTable
from repro.core.varint import (
    LP,
    SIGNED,
    STREAM_FLAG_BITS,
    decode_svarint_array,
    decode_uvarint,
    decode_uvarint_array,
    decode_varint_stream,
    encode_svarint_array,
    encode_uvarint,
    encode_uvarint_array,
    encode_uvarint_stream,
    stream_to_unsigned,
    uvarint_stream_sizes,
)
from repro.errors import RecordFormatError
from repro.obs import get_registry, span

RAW_MAGIC = b"CDR0"
RE_MAGIC = b"CDR1"
CDC_MAGIC = b"CDC1"

#: Paper field widths for the raw quintuple (Section 6.1).
COUNT_BITS = 64
FLAG_BITS = 1
WITH_NEXT_BITS = 1
RANK_BITS = 32
CLOCK_BITS = 64
ROW_BITS = COUNT_BITS + FLAG_BITS + WITH_NEXT_BITS + RANK_BITS + CLOCK_BITS


class BitWriter:
    """Append-only MSB-first bit packer."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._bitpos = 0  # bits already used in the last byte

    def write(self, value: int, bits: int) -> None:
        if value < 0 or value >= (1 << bits):
            raise ValueError(f"value {value} does not fit in {bits} bits")
        for shift in range(bits - 1, -1, -1):
            bit = (value >> shift) & 1
            if self._bitpos == 0:
                self._buf.append(0)
            self._buf[-1] |= bit << (7 - self._bitpos)
            self._bitpos = (self._bitpos + 1) % 8

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    @property
    def bit_length(self) -> int:
        return (len(self._buf) - 1) * 8 + (self._bitpos or 8) if self._buf else 0


class BitReader:
    """MSB-first bit reader matching :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    def read(self, bits: int) -> int:
        end = self._pos + bits
        if end > len(self._data) * 8:
            raise RecordFormatError("bit stream truncated")
        value = 0
        for p in range(self._pos, end):
            byte = self._data[p // 8]
            value = (value << 1) | ((byte >> (7 - p % 8)) & 1)
        self._pos = end
        return value


# ---------------------------------------------------------------------------
# Raw (Figure 4) format
# ---------------------------------------------------------------------------


def serialize_raw_rows(rows: Sequence[QuintupleRow]) -> bytes:
    """Bit-pack quintuple rows at the paper's 162 bits/row."""
    writer = BitWriter()
    for row in rows:
        writer.write(row.count, COUNT_BITS)
        writer.write(int(row.flag), FLAG_BITS)
        writer.write(int(bool(row.with_next)), WITH_NEXT_BITS)
        writer.write(row.rank if row.rank is not None else 0, RANK_BITS)
        writer.write(row.clock if row.clock is not None else 0, CLOCK_BITS)
    header = bytearray(RAW_MAGIC)
    encode_uvarint(len(rows), header)
    return bytes(header) + writer.getvalue()


def deserialize_raw_rows(data: bytes) -> list[QuintupleRow]:
    """Inverse of :func:`serialize_raw_rows`."""
    if data[:4] != RAW_MAGIC:
        raise RecordFormatError("bad raw-record magic")
    n, offset = decode_uvarint(data, 4)
    reader = BitReader(data[offset:])
    rows: list[QuintupleRow] = []
    for _ in range(n):
        count = reader.read(COUNT_BITS)
        flag = bool(reader.read(FLAG_BITS))
        with_next = bool(reader.read(WITH_NEXT_BITS))
        rank = reader.read(RANK_BITS)
        clock = reader.read(CLOCK_BITS)
        if flag:
            rows.append(QuintupleRow(count, True, with_next, rank, clock))
        else:
            rows.append(QuintupleRow(count, False, None, None, None))
    return rows


def raw_size_bits(rows: Sequence[QuintupleRow]) -> int:
    """Exact payload size in bits (the paper's 162 * rows accounting)."""
    return ROW_BITS * len(rows)


# ---------------------------------------------------------------------------
# RE (Figure 6, identifiers kept) format
# ---------------------------------------------------------------------------


def serialize_re_tables(tables: Sequence[RecordTable]) -> bytes:
    """Serialize redundancy-eliminated tables, identifiers included."""
    out = bytearray(RE_MAGIC)
    callsites = sorted({t.callsite for t in tables})
    _write_string_table(out, callsites)
    cs_id = {c: i for i, c in enumerate(callsites)}
    encode_uvarint(len(tables), out)
    for t in tables:
        encode_uvarint(cs_id[t.callsite], out)
        out += encode_uvarint_array([ev.rank for ev in t.matched])
        out += encode_svarint_array([ev.clock for ev in t.matched])
        out += encode_uvarint_array(t.with_next_indices)
        out += encode_uvarint_array([i for i, _ in t.unmatched_runs])
        out += encode_uvarint_array([c for _, c in t.unmatched_runs])
    return bytes(out)


def deserialize_re_tables(data: bytes) -> list[RecordTable]:
    """Inverse of :func:`serialize_re_tables`."""
    if data[:4] != RE_MAGIC:
        raise RecordFormatError("bad RE-record magic")
    callsites, offset = _read_string_table(data, 4)
    n, offset = decode_uvarint(data, offset)
    tables: list[RecordTable] = []
    for _ in range(n):
        cs, offset = decode_uvarint(data, offset)
        if cs >= len(callsites):
            raise RecordFormatError(f"callsite id {cs} out of range")
        ranks, offset = decode_uvarint_array(data, offset)
        clocks, offset = decode_svarint_array(data, offset)
        with_next, offset = decode_uvarint_array(data, offset)
        u_idx, offset = decode_uvarint_array(data, offset)
        u_cnt, offset = decode_uvarint_array(data, offset)
        if len(ranks) != len(clocks) or len(u_idx) != len(u_cnt):
            raise RecordFormatError("RE table column lengths disagree")
        tables.append(
            RecordTable(
                callsites[cs],
                tuple(ReceiveEvent(r, c) for r, c in zip(ranks, clocks)),
                tuple(with_next),
                tuple(zip(u_idx, u_cnt)),
            )
        )
    return tables


# ---------------------------------------------------------------------------
# CDC (Figure 8) format
# ---------------------------------------------------------------------------


class Column(NamedTuple):
    """One length-prefixed column of a chunk: the table its bytes count
    towards, zig-zag?, Eq. 3 residuals?, and the layout that carries it —
    ``None`` both, ``True`` only a chunk with the replay-assist column,
    ``False`` only one without (the paper's)."""

    table: str
    signed: bool = False
    lp: bool = False
    assisted: bool | None = None


#: The chunk layout, declared once. After the string table a payload is one
#: run of uvarints (DESIGN.md §6.5): the chunk count, then per chunk
#: ``callsite id << 1 | assist``, ``num_events`` and its layout's columns,
#: each ``len, values...``. An assist chunk stores each fact once (DESIGN.md
#: §5.9): its sender column already holds the epoch ranks and counts.
CDC_COLUMNS = (
    Column("permutation", signed=True, lp=True),  # moved reference indices
    Column("permutation", signed=True),  # their delays
    Column("with_next", signed=True, lp=True),
    Column("unmatched", signed=True, lp=True),  # run positions
    Column("unmatched"),  # run lengths
    Column("epoch", signed=True, lp=True, assisted=False),  # sender ranks, ascending
    # per-sender clock ceiling; with assist, its step from the previous sender's
    Column("epoch", signed=True),
    Column("epoch", assisted=False),  # per-sender receive count
    # first clock per sender, stored as the (>= 0) gap below the epoch
    # ceiling — zero for single-receive senders, tiny after varints.
    Column("epoch", assisted=False),
    # boundary exceptions (DESIGN.md §5.2): usually both arrays empty
    Column("exceptions"),
    Column("exceptions", signed=True),
    # replay-assist sender column (DESIGN.md §5.6)
    Column("assist", assisted=True),
)

#: Byte-attribution buckets, in layout order: the ``format.cdc.<table>_bytes``
#: telemetry counters, and with the chunk headers (callsite id, num_events)
#: the fields of ``analysis.size_model.SizeBreakdown``.
CDC_TABLES = tuple(dict.fromkeys(c.table for c in CDC_COLUMNS))
CDC_BUCKETS = CDC_TABLES + ("header",)

#: the columns of a chunk [0] without, [1] with the assist column
_LAYOUTS = tuple(
    tuple(c for c in CDC_COLUMNS if c.assisted in (None, flag)) for flag in (False, True)
)


def _segment_codes(layout: Sequence[Column]) -> np.ndarray:
    """A chunk's segments (header, then each column's prefix and body) as
    stream flags under a table number."""
    codes = [CDC_BUCKETS.index("header") << STREAM_FLAG_BITS]
    for col in layout:
        table = CDC_TABLES.index(col.table) << STREAM_FLAG_BITS
        codes += [table, table | col.signed * SIGNED | col.lp * LP]
    return np.array(codes, np.uint8)


_SEGMENT_CODES = tuple(map(_segment_codes, _LAYOUTS))


def _chunk_columns(chunk: CDCChunk) -> tuple:
    """A chunk's values, in the order of its layout's columns."""
    pairs = chunk.epoch.as_sorted_pairs()
    ranks = [r for r, _ in pairs]
    ceilings = [c for _, c in pairs]
    senders = chunk.sender_sequence
    if senders is not None:
        if sorted(set(senders)) != ranks:
            raise RecordFormatError("epoch ranks are not the sender column's")
        epoch = ([c - p for c, p in zip(ceilings, [0] + ceilings)],)
    else:
        counts, mins = dict(chunk.sender_counts), dict(chunk.sender_min_clocks)
        if sorted(counts) != ranks or sorted(mins) != ranks:
            raise RecordFormatError("epoch / count / min-clock ranks disagree")
        gaps = [clock - mins[r] for r, clock in pairs]
        epoch = (ranks, ceilings, [counts[r] for r in ranks], gaps)
    return (
        chunk.diff.indices,
        chunk.diff.delays,
        chunk.with_next_indices,
        [i for i, _ in chunk.unmatched_runs],
        [c for _, c in chunk.unmatched_runs],
        *epoch,
        [r for r, _ in chunk.boundary_exceptions],
        [c for _, c in chunk.boundary_exceptions],
        *(() if senders is None else (senders,)),
    )


def cdc_stream(
    chunks: Sequence[CDCChunk], cs_id: Mapping[str, int]
) -> tuple[np.ndarray | list[int], np.ndarray]:
    """The chunks as the unsigned values their varints carry (LP and zig-zag
    applied), and per value its segment code (above the flags: the bucket)."""
    flat, lengths, codes = [], [], []
    for chunk in chunks:
        assisted = chunk.sender_sequence is not None
        flat += (cs_id[chunk.callsite] << 1 | assisted, chunk.num_events)
        lengths.append(2)
        for column in _chunk_columns(chunk):
            flat.append(len(column))
            flat += column
            lengths += (1, len(column))
        codes.append(_SEGMENT_CODES[assisted])
    codes = np.concatenate(codes) if codes else np.empty(0, np.uint8)
    return stream_to_unsigned(flat, codes, lengths)


def cdc_table_bytes(values: np.ndarray | list[int], code: np.ndarray) -> list[int]:
    """Serialized bytes per :data:`CDC_BUCKETS` entry."""
    sizes = uvarint_stream_sizes(values)
    buckets = np.bincount(code >> STREAM_FLAG_BITS, sizes, minlength=len(CDC_BUCKETS))
    return buckets.astype(np.int64).tolist()


def serialize_cdc_chunks(chunks: Sequence[CDCChunk]) -> bytes:
    """Serialize fully-encoded CDC chunks (LP-encoded index columns)."""
    out = bytearray(CDC_MAGIC)
    callsites = sorted({c.callsite for c in chunks})
    _write_string_table(out, callsites)
    encode_uvarint(len(chunks), out)
    values, code = cdc_stream(chunks, {c: i for i, c in enumerate(callsites)})
    out += encode_uvarint_stream(values)
    registry = get_registry()
    if registry.enabled:
        registry.counter("format.cdc.serialize_calls").add()
        registry.counter("format.cdc.chunks_out").add(len(chunks))
        registry.counter("format.cdc.bytes_out").add(len(out))
        for table, n in zip(CDC_TABLES, cdc_table_bytes(values, code)):
            registry.counter(f"format.cdc.{table}_bytes").add(n)
    return bytes(out)


def deserialize_cdc_chunks(data: bytes) -> list[CDCChunk]:
    """Inverse of :func:`serialize_cdc_chunks`."""
    registry = get_registry()
    if not registry.enabled:
        return _deserialize_cdc_chunks(data)
    with span("format.deserialize_cdc", bytes_in=len(data)) as sp:
        chunks = _deserialize_cdc_chunks(data)
        sp.set(chunks=len(chunks))
    registry.counter("format.cdc.deserialize_calls").add()
    registry.counter("format.cdc.chunks_in").add(len(chunks))
    registry.counter("format.cdc.bytes_in").add(len(data))
    return chunks


def _deserialize_cdc_chunks(data: bytes) -> list[CDCChunk]:
    if data[:4] != CDC_MAGIC:
        raise RecordFormatError("bad CDC-record magic")
    callsites, offset = _read_string_table(data, 4)
    unsigned, signed = decode_varint_stream(data, offset)
    total = len(unsigned)
    if not total:
        raise RecordFormatError(f"truncated varint at offset {offset}")
    chunks: list[CDCChunk] = []
    i = 1  # next unread value; unsigned[0] is the chunk count
    for _ in range(unsigned[0]):
        if i + 2 > total:
            raise RecordFormatError(f"chunk header truncated at value {i}")
        head, num_events = unsigned[i : i + 2]
        cs, assisted = head >> 1, head & 1
        if cs >= len(callsites):
            raise RecordFormatError(f"callsite id {cs} out of range")
        i += 2
        columns, rows = [], {}
        for col in _LAYOUTS[assisted]:
            # a length prefix can promise no more values than bytes arrived
            stop = i + 1 + unsigned[i] if i < total else total + 1
            if stop > total:
                raise RecordFormatError(f"column truncated at value {i}")
            body = (signed if col.signed else unsigned)[i + 1 : stop]
            # a table's columns are parallel arrays
            if rows.setdefault(col.table, len(body)) != len(body):
                raise RecordFormatError(f"{col.table} columns disagree")
            columns.append(tuple(lp_decode_exact(body) if col.lp else body))
            i = stop
        if assisted:
            # derived, not stored (DESIGN.md §5.9): the sender column's
            # distinct values and histogram are the epoch ranks and counts
            (p_idx, p_delay, w_idx, u_idx, u_cnt, steps, x_rank, x_clock,
             senders) = columns
            e_count = sorted(Counter(senders).items())
            if len(senders) != num_events or len(steps) != len(e_count):
                raise RecordFormatError(
                    f"{len(senders)} senders ({len(e_count)} distinct) for "
                    f"{num_events} events under {len(steps)} epoch ceilings"
                )
            e_rank = [r for r, _ in e_count]
            e_clock, e_min = accumulate(steps), ()
        else:
            (p_idx, p_delay, w_idx, u_idx, u_cnt, e_rank, e_clock, e_count,
             e_min_gap, x_rank, x_clock) = columns
            senders, e_count = None, zip(e_rank, e_count)
            e_min = ((r, c - g) for r, c, g in zip(e_rank, e_clock, e_min_gap))
        chunks.append(
            CDCChunk(
                callsite=callsites[cs],
                num_events=num_events,
                diff=PermutationDiff(num_events, p_idx, p_delay),
                with_next_indices=w_idx,
                unmatched_runs=tuple(zip(u_idx, u_cnt)),
                epoch=EpochLine(dict(zip(e_rank, e_clock))),
                sender_counts=tuple(e_count),
                sender_min_clocks=tuple(e_min),
                boundary_exceptions=tuple(zip(x_rank, x_clock)),
                sender_sequence=senders,
            )
        )
    return chunks


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _write_string_table(out: bytearray, strings: Sequence[str]) -> None:
    encode_uvarint(len(strings), out)
    for s in strings:
        raw = s.encode("utf-8")
        encode_uvarint(len(raw), out)
        out += raw


def _read_string_table(data: bytes, offset: int) -> tuple[list[str], int]:
    n, offset = decode_uvarint(data, offset)
    strings: list[str] = []
    for _ in range(n):
        length, offset = decode_uvarint(data, offset)
        if offset + length > len(data):
            raise RecordFormatError("string table truncated")
        try:
            strings.append(data[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise RecordFormatError(f"string table: {exc}") from None
        offset += length
    return strings, offset
