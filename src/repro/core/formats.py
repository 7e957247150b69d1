"""Binary record formats: raw baseline, RE-only, and full CDC chunks.

Three on-storage layouts back the Figure 13 comparison:

* **Raw** (``w/o Compression``): the Figure 4 quintuple rows bit-packed at
  the paper's field widths — count 64 b, flag 1 b, with_next 1 b, rank 32 b,
  clock 64 b = 162 bits/row.
* **RE**: the Figure 6 decomposition with the ``(rank, clock)`` identifier
  columns still present, as varint arrays.
* **CDC**: the Figure 8 format — permutation difference, with_next,
  unmatched-test and epoch tables, with every monotone index column passed
  through the Eq. 3 linear predictor before varint packing; a chunk with the
  replay-assist sender column codes each column as what it is instead.

All layouts are self-describing streams; gzip (zlib) is applied on top by
:mod:`repro.core.compression` where the method calls for it.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import accumulate, groupby
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core import kernels
from repro.core.epoch import EpochLine
from repro.core.events import QuintupleRow
from repro.core.lp_encoding import lp_decode_exact
from repro.core.permutation import PermutationDiff
from repro.core.pipeline import CDCChunk
from repro.core.record_table import RecordTable
from repro.core.varint import (
    LP,
    SIGNED,
    STREAM_FLAG_BITS,
    decode_uvarint,
    decode_varint_stream,
    encode_svarint_array,
    encode_uvarint,
    encode_uvarint_array,
    encode_uvarint_stream,
    stream_to_unsigned,
    uvarint_stream_sizes,
)
from repro.errors import RecordFormatError, UnknownCallsiteError
from repro.obs import get_registry

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


#: the fields of a row, in order, at the widths above
_ROW_FIELDS = (COUNT_BITS, FLAG_BITS, WITH_NEXT_BITS, RANK_BITS, CLOCK_BITS)

# ---------------------------------------------------------------------------
# Raw (Figure 4) format
# ---------------------------------------------------------------------------


def serialize_raw_rows(rows: Sequence[QuintupleRow]) -> bytes:
    """Bit-pack quintuple rows at the paper's 162 bits/row."""
    out = bytearray(RAW_MAGIC)
    encode_uvarint(len(rows), out)
    for start in range(0, len(rows), 512):  # blocks end on a byte: four rows are 81
        block = rows[start : start + 512]
        cells = [(r.count, r.flag, bool(r.with_next), r.rank or 0, r.clock or 0) for r in block]
        planes = []
        for column, width in zip(zip(*cells), _ROW_FIELDS):
            if min(column) < 0 or max(column) >> width:
                raise ValueError(f"a value does not fit in {width} bits")
            planes.append(kernels.to_bits(column, width).reshape(len(block), width))
        out += kernels.packbits(np.hstack(planes))
    return bytes(out)


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


# ---------------------------------------------------------------------------
# CDC (Figure 8) format
# ---------------------------------------------------------------------------


#: how a column is coded: as varints of the chunk's varint run, or as a plane of
#: its bit section — a bit per event, Rice codes (unary + remainder), a sender
#: index: each round's Lehmer code in mixed-radix words when the column is rounds
#: that name every sender once, else packed
VARINT, BITMAP, RICE, LEHMER = "varint", "bitmap", "rice", "lehmer"


class Column(NamedTuple):
    """One column of a chunk: the table its bytes count towards; how it is
    coded (a varint: zig-zag? Eq. 3 residuals?); and the layout that carries
    it — ``None`` both, ``True`` only a chunk with the replay-assist column,
    ``False`` only one without (the paper's)."""

    table: str
    signed: bool = False
    lp: bool = False
    assisted: bool | None = None
    coder: str = VARINT


#: The chunk layouts, declared once. A paper-exact chunk is one run of
#: uvarints (DESIGN.md §6.5): ``callsite id << 1``, ``num_events`` and its
#: columns, each ``len, values...``, every index column through Eq. 3. An
#: assist chunk stores each fact once (§5.9), each column coded as what it is
#: (§5.10): flags, ``num_events``, the sender count, the Rice scalars; the
#: planes; then its varint columns, with no length a neighbour already gives.
CDC_COLUMNS = (
    Column("permutation", signed=True, lp=True),  # moved reference indices
    Column("permutation", signed=True),  # their delays
    Column("with_next", signed=True, lp=True, assisted=False),
    Column("with_next", assisted=True, coder=BITMAP),  # one bit per event
    Column("unmatched", signed=True, lp=True, assisted=False),  # run positions
    Column("unmatched", assisted=False),  # run lengths
    Column("unmatched", assisted=True, coder=RICE),  # gaps between runs, less one
    Column("unmatched", assisted=True, coder=RICE),  # run lengths, less one
    Column("epoch", signed=True, lp=True, assisted=False),  # sender ranks, ascending
    Column("epoch", assisted=True),  # ... as gaps, less one
    # per-sender clock ceiling; with assist, its step from the previous sender's
    Column("epoch", signed=True),
    Column("epoch", assisted=False),  # per-sender receive count
    # first clock per sender, stored as the (>= 0) gap below the epoch
    # ceiling — zero for single-receive senders, tiny after varints.
    Column("epoch", assisted=False),
    # boundary exceptions (DESIGN.md §5.2): usually both arrays empty
    Column("exceptions"),
    Column("exceptions", signed=True),
    # replay-assist sender column (DESIGN.md §5.6): an index into the ranks above
    Column("assist", assisted=True, coder=LEHMER),
)

#: Byte-attribution buckets, in layout order: the ``format.cdc.<table>_bytes``
#: counters and, with the chunk headers, ``analysis.size_model.SizeBreakdown``.
CDC_TABLES = tuple(dict.fromkeys(c.table for c in CDC_COLUMNS))
CDC_BUCKETS = CDC_TABLES + ("header",)
#: where a serializer adds its bytes per bucket, when asked
Sizes = np.ndarray | None

#: the columns of a chunk [0] without, [1] with the assist column
_LAYOUTS = tuple(
    tuple(c for c in CDC_COLUMNS if c.assisted in (None, flag)) for flag in (False, True)
)
_ASSIST_VARINTS = tuple(c for c in _LAYOUTS[True] if c.coder == VARINT)

#: an assist record's first varint: the layout bit, a bit per optional table, and
#: whether the sender plane is rounds of permutations (Lehmer words, not an index)
_HAS = _HAS_PERMUTATION, _HAS_WITH_NEXT, _HAS_UNMATCHED, _HAS_EXCEPTIONS = 2, 4, 8, 16
_ROUNDS = 32
#: the most senders a permutation round has — a default chunk's events: coding a
#: round costs O(d) per event. Two-sender rounds keep the packed index too: their
#: Lehmer code saves 1 byte of 5,110 on jacobi64 for a dozen array calls a chunk
MAX_ROUND_SENDERS = 1 << 10
#: [i, j] of a round of d: is position j later than position i
_later = lru_cache(maxsize=64)(lambda d: ~np.tri(d, d, 0, bool))
#: the frame-payload cap — no frame is written, inflated, or a plane built, past
#: it (1,024 events fill a few KiB, a million a few MiB); the largest Rice parameter
MAX_PAYLOAD_BYTES, MAX_RICE_K = 1 << 22, 15


def _code(col: Column) -> int:
    """A varint column as stream flags under its table's number."""
    return CDC_TABLES.index(col.table) << STREAM_FLAG_BITS | col.signed * SIGNED | col.lp * LP


#: a paper-exact chunk's segments: its header, then each column's length and body
_PAPER_CODES = np.array(
    [len(CDC_TABLES) << STREAM_FLAG_BITS]
    + [code for col in _LAYOUTS[False] for code in (_code(Column(col.table)), _code(col))],
    np.uint8,
)
#: an assist chunk's varint run: the permutation's row count, then its columns
_ASSIST_CODES = np.array([_code(Column("permutation")), *map(_code, _ASSIST_VARINTS)], np.uint8)


def _chunk_columns(chunk: CDCChunk) -> tuple:
    """A paper-exact chunk's values, in the order of its layout's columns."""
    pairs = chunk.epoch.as_sorted_pairs()
    ranks = [r for r, _ in pairs]
    counts, mins = dict(chunk.sender_counts), dict(chunk.sender_min_clocks)
    if sorted(counts) != ranks or sorted(mins) != ranks:
        raise RecordFormatError("epoch / count / min-clock ranks disagree")
    return (
        chunk.diff.indices,
        chunk.diff.delays,
        chunk.with_next_indices,
        [i for i, _ in chunk.unmatched_runs],
        [c for _, c in chunk.unmatched_runs],
        ranks,
        [c for _, c in pairs],
        [counts[r] for r in ranks],
        [clock - mins[r] for r, clock in pairs],
        [r for r, _ in chunk.boundary_exceptions],
        [c for _, c in chunk.boundary_exceptions],
    )


def _varint_run(flat: list[int], codes: np.ndarray, lengths: Sequence[int], sizes: Sizes) -> bytes:
    """A run of varints laid out as segments of one code each (LP and zig-zag
    applied)."""
    values = stream_to_unsigned(flat, codes, lengths)
    if sizes is not None:
        tables = np.repeat(codes >> STREAM_FLAG_BITS, lengths)
        sizes += np.bincount(tables, uvarint_stream_sizes(values), len(sizes)).astype(np.int64)
    return encode_uvarint_stream(values)


def _paper_records(chunks: Sequence[CDCChunk], cs_id: Mapping[str, int], sizes: Sizes) -> bytes:
    """Paper-exact chunks, back to back, as one varint run."""
    flat, lengths = [], []
    for chunk in chunks:
        flat += (cs_id[chunk.callsite] << 1, chunk.num_events)
        lengths.append(2)
        for column in _chunk_columns(chunk):
            flat.append(len(column))
            flat += column
            lengths += (1, len(column))
    return _varint_run(flat, np.tile(_PAPER_CODES, len(chunks)), lengths, sizes)


def _flags(chunk: CDCChunk, rounds: bool) -> int:
    """An assist record's first varint, read off the chunk and its sender plane."""
    tables = chunk.diff.indices, chunk.with_next_indices, chunk.unmatched_runs
    has = zip(_HAS, (*tables, chunk.boundary_exceptions))
    return 1 + sum(bit for bit, table in has if table) + _ROUNDS * rounds


def _is_rounds(index: np.ndarray, d: int) -> bool:
    """Is the sender index rounds of ``d`` events, 3 to ``MAX_ROUND_SENDERS``,
    that each name every sender once?"""
    if not 2 < d <= MAX_ROUND_SENDERS or len(index) % d:
        return False
    return bool((np.sort(index.reshape(-1, d)) == np.arange(d)).all())


@lru_cache(maxsize=128)
def _words(d: int) -> tuple[np.ndarray, ...]:
    """A round of ``d`` senders as mixed-radix words: the radices ``d, ..., 1`` of its digits
    grouped greedily into words of product at most 2**64, the first digit least significant
    (the last, radix 1, is 0 and adds no bit). Per digit: its word, place value and radix;
    the digits words begin at; each word's product, which it is below; per bit of a round's
    plane, words high bit first: its word and weight; the bits words begin at."""
    word, place, products = [], [], [1 << 64]
    for radix in range(d, 0, -1):
        if products[-1] * radix > 1 << 64:
            products.append(1)
        word.append(len(products) - 2)
        place.append(products[-1])
        products[-1] *= radix
    widths = [(product - 1).bit_length() for product in products[1:]]
    shifts = np.concatenate([np.arange(width, dtype=np.uint64)[::-1] for width in widths])
    return (np.array(word), np.array(place, np.uint64), np.arange(d, 0, -1, dtype=np.uint64),
            np.flatnonzero(np.diff(word, prepend=-1)), np.array(products[1:], np.uint64),
            np.repeat(np.arange(len(widths)), widths), np.uint64(1) << shifts,
            np.cumsum([0, *widths[:-1]]))


def _lehmer_bits(index: np.ndarray, d: int) -> np.ndarray:
    """The sender plane of rounds of permutations: per round, digit ``i``
    counts the later positions whose index is smaller; the digits go into words."""
    _, place, _, starts, _, bit_word, weight, _ = _words(d)
    rows, later = index.astype(np.int16).reshape(-1, d), _later(d)  # d <= 1024: short ints
    digits, step = np.empty(rows.shape, np.uint16), max(1, (1 << 20) // (d * d))
    for start in range(0, len(rows), step):  # rounds compared at once: a MiB of booleans
        block = rows[start : start + step]
        ((block[:, None, :] < block[:, :, None]) & later).sum(2, np.uint16, digits[start:][:step])
    words = np.add.reduceat(digits * place, starts, axis=1)
    return ((words[:, bit_word] & weight) != 0).view(np.uint8).ravel()


def _lehmer_senders(bits: np.ndarray, n: int, ranks: list[int]) -> list[int]:
    """Inverse of :func:`_lehmer_bits`, as ranks: a digit picks its position's sender among
    those not yet picked — round by round or, where rounds outnumber senders fourfold,
    position by position over all rounds at once. A word past its product is refused."""
    d = len(ranks)
    word, place, radix, _, products, _, weight, bit_starts = _words(d)
    words = np.add.reduceat(bits.reshape(n // d, -1) * weight, bit_starts, axis=1)
    if (words >= products).any():
        raise RecordFormatError("a permutation word at or past its radix product")
    digits = (words[:, word] // place % radix).astype(np.intp)
    if len(digits) >= 4 * d:
        left, rounds, picked = np.tile(ranks, (len(digits), 1)), np.arange(len(digits)), []
        for i, digit in enumerate(digits.T):
            picked.append(left[rounds, digit])
            left = np.where(np.arange(d - 1 - i) < digit[:, None], left[:, :-1], left[:, 1:])
        return np.column_stack(picked).ravel().tolist()
    senders: list[int] = []
    for row in digits.tolist():
        left = list(ranks)
        senders += [left.pop(digit) for digit in row]
    return senders


def _assist_record(chunk: CDCChunk, sizes: Sizes) -> bytes:
    """An assist chunk from its flags on (DESIGN.md §5.10)."""
    n, senders, with_next = chunk.num_events, chunk.sender_sequence, chunk.with_next_indices
    pairs = chunk.epoch.as_sorted_pairs()
    ranks = [r for r, _ in pairs]
    ceilings = [c for _, c in pairs]
    if len(senders) != n or sorted(set(senders)) != ranks:
        raise RecordFormatError("event count or epoch ranks are not the sender column's")
    index = np.array(ranks).searchsorted(senders) if len(ranks) > 1 else np.zeros(n, np.uint8)
    rounds = _is_rounds(index, len(ranks))
    scalars = [_flags(chunk, rounds), n, len(ranks)]
    planes: list[tuple[str, np.ndarray]] = []  # (table, bits), in section order
    if with_next:
        if sorted(set(with_next)) != list(with_next) or not 0 <= with_next[0] <= with_next[-1] < n:
            raise ValueError("with_next indices must ascend within the chunk")
        bitmap = np.zeros(n, np.uint8)
        bitmap[list(with_next)] = 1
        planes.append(("with_next", bitmap))
    if chunk.unmatched_runs:
        m = len(chunk.unmatched_runs)
        positions, lengths = zip(*chunk.unmatched_runs)
        values = np.array(positions + lengths, dtype=np.int64)
        values[1:m] -= values[: m - 1]  # m positions, then m lengths: each as
        values[1:] -= 1  # what it adds to the least it can be
        if int(values.min()) < 0:
            raise ValueError("unmatched runs must ascend and hold a test each")
        # k = floor(log2 mean) per column: a quotient then averages under two
        ks = [
            min(MAX_RICE_K, max(1, total // m).bit_length() - 1)
            for total in np.add.reduceat(values, (0, m)).tolist()
        ]
        zeros = values >> np.repeat(ks, m)  # each code: its quotient in ones, then a zero
        zeros += 1
        zeros = zeros.cumsum() - 1
        unary_bits = int(zeros[-1]) + 1
        scalars += [m, *ks, unary_bits]
        if unary_bits > 8 * MAX_PAYLOAD_BYTES:
            raise ValueError("an unmatched run too long for the layout")
        unary = np.ones(unary_bits, np.uint8)
        unary[zeros] = 0
        remainders = kernels.to_bits(values[:m], ks[0]), kernels.to_bits(values[m:], ks[1])
        planes += [("unmatched", plane) for plane in (unary, *remainders)]
    if rounds:
        planes.append(("assist", _lehmer_bits(index, len(ranks))))
    else:  # with one sender, the plane is its index: a zero per event
        width = (len(ranks) - 1).bit_length()
        planes.append(("assist", kernels.to_bits(index, width) if len(ranks) > 1 else index))
    out = bytearray()
    for scalar in scalars:
        encode_uvarint(scalar, out)
    if sizes is not None:
        sizes[-1] += len(out)
        # a plane's bytes are the byte ends its bits cross; the pad is the last one's
        ends = -(-np.cumsum([len(bits) for _, bits in planes]) // 8)
        for (table, _), size in zip(planes, np.diff(ends, prepend=0).tolist()):
            sizes[CDC_TABLES.index(table)] += size
    out += kernels.packbits(np.concatenate([bits for _, bits in planes]))
    diff, exceptions = chunk.diff, chunk.boundary_exceptions
    columns = (
        diff.indices,
        diff.delays,
        [r - p - 1 for r, p in zip(ranks, [-1] + ranks)],
        [c - p for c, p in zip(ceilings, [0] + ceilings)],
        [r for r, _ in exceptions],
        [c for _, c in exceptions],
    )
    flat = [len(diff.indices)] if diff.indices else []
    for column in columns:
        flat += column
    return bytes(out) + _varint_run(
        flat, _ASSIST_CODES, [bool(diff.indices), *map(len, columns)], sizes
    )


def cdc_record_sizes(chunks: Sequence[CDCChunk], cs_id: Mapping[str, int]) -> np.ndarray:
    """Bytes per :data:`CDC_BUCKETS` entry of the chunks' records."""
    sizes = np.zeros(len(CDC_BUCKETS), np.int64)
    _paper_records([c for c in chunks if c.sender_sequence is None], cs_id, sizes)
    for chunk in chunks:
        if chunk.sender_sequence is not None:
            _assist_record(chunk, sizes)
    return sizes


def _records(out: bytearray, chunks: Sequence[CDCChunk], cs_id: Mapping, heads: bool) -> bytes:
    """``out`` + the records; ``heads``: assist ones behind ``id << 1 | 1`` and a length."""
    registry = get_registry()
    sizes = np.zeros(len(CDC_BUCKETS), np.int64) if registry.enabled else None
    for assisted, run in groupby(chunks, lambda c: c.sender_sequence is not None):
        if not assisted:
            out += _paper_records(list(run), cs_id, sizes)
            continue
        for chunk in run:
            record = _assist_record(chunk, sizes)
            if heads:
                encode_uvarint(cs_id[chunk.callsite] << 1 | 1, out)
                encode_uvarint(len(record), out)
            out += record
    if sizes is not None:
        registry.counter("format.cdc.serialize_calls").add()
        registry.counter("format.cdc.chunks_out").add(len(chunks))
        registry.counter("format.cdc.bytes_out").add(len(out))
        for table, size in zip(CDC_TABLES, sizes.tolist()):
            registry.counter(f"format.cdc.{table}_bytes").add(size)
    return bytes(out)


def serialize_cdc_chunks(chunks: Sequence[CDCChunk]) -> bytes:
    """Serialize fully-encoded CDC chunks: a string table, the chunk count,
    then the records, each assist chunk's behind a head and its length."""
    out = bytearray(CDC_MAGIC)
    callsites = sorted({c.callsite for c in chunks})
    _write_string_table(out, callsites)
    encode_uvarint(len(chunks), out)
    return _records(out, chunks, {c: i for i, c in enumerate(callsites)}, heads=True)


#: a frame payload opens with its callsite's id: the CRC-32 of the name's UTF-8
CALLSITE_ID_BYTES = 4


def callsite_id(callsite: str) -> int:
    """The 4-byte id a frame names its callsite by (the name is the manifest's)."""
    return zlib.crc32(callsite.encode("utf-8"))


def callsite_label(cid: int) -> str:
    """What a chunk is called when only its callsite's id survives."""
    return f"#{cid:08x}"


def encode_frame_payload(chunk: CDCChunk) -> bytes:
    """What an archive frame deflates: the callsite's id (little-endian),
    then the chunk's record to the end of the payload."""
    out = bytearray(callsite_id(chunk.callsite).to_bytes(CALLSITE_ID_BYTES, "little"))
    return _records(out, [chunk], {chunk.callsite: 0}, heads=False)


def decode_frame_payload(data: bytes, callsites: Mapping[int, str] | None = None) -> CDCChunk:
    """Inverse of :func:`encode_frame_payload`: exactly one chunk, named by
    ``callsites`` (id -> name) — without a table, by :func:`callsite_label`.
    An id the table does not hold is an :class:`UnknownCallsiteError`."""
    if len(data) < CALLSITE_ID_BYTES:
        raise RecordFormatError("frame payload shorter than its callsite id")
    cid, offset = int.from_bytes(data[:CALLSITE_ID_BYTES], "little"), CALLSITE_ID_BYTES
    callsite = callsite_label(cid) if callsites is None else callsites.get(cid)
    if callsite is None:
        raise UnknownCallsiteError(f"callsite id {cid:#010x} is not in the names table")
    if decode_uvarint(data, offset)[0] & 1:
        return _decode_assist(callsite, data, offset, len(data))
    chunks: list[CDCChunk] = []
    if _decode_paper_run([callsite], data, offset, 1, chunks) != len(data) or not chunks:
        raise RecordFormatError("frame payload is not exactly one chunk")
    return chunks[0]


def deserialize_cdc_chunks(data: bytes) -> list[CDCChunk]:
    """Inverse of :func:`serialize_cdc_chunks`."""
    if data[:4] != CDC_MAGIC:
        raise RecordFormatError("bad CDC-record magic")
    callsites, offset = _read_string_table(data, 4)
    count, offset = decode_uvarint(data, offset)
    chunks: list[CDCChunk] = []
    while len(chunks) < count:
        head, start = decode_uvarint(data, offset)
        if not head & 1:
            offset = _decode_paper_run(callsites, data, offset, count - len(chunks), chunks)
            continue
        length, start = decode_uvarint(data, start)
        offset = start + length
        if head >> 1 >= len(callsites) or offset > len(data):
            raise RecordFormatError(f"callsite id {head >> 1} out of range, or record truncated")
        chunks.append(_decode_assist(callsites[head >> 1], data, start, offset))
    return chunks


def _decode_paper_run(
    callsites: Sequence[str], data: bytes, offset: int, limit: int, chunks: list[CDCChunk]
) -> int:
    """Append up to ``limit`` consecutive paper-exact chunks read from
    ``offset`` — one varint pass — and return where the next record starts."""
    unsigned, signed, ends = decode_varint_stream(data, offset)
    total = len(unsigned)
    i = 0  # next unread value
    while limit and i < total and not unsigned[i] & 1:
        if i + 2 > total:
            raise RecordFormatError(f"chunk header truncated at value {i}")
        cs, num_events = unsigned[i] >> 1, unsigned[i + 1]
        if cs >= len(callsites):
            raise RecordFormatError(f"callsite id {cs} out of range")
        i += 2
        columns, rows = [], {}
        for col in _LAYOUTS[False]:
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
        (p_idx, p_delay, w_idx, u_idx, u_cnt, e_rank, e_clock, e_count,
         e_min_gap, x_rank, x_clock) = columns
        chunks.append(
            CDCChunk(
                callsite=callsites[cs],
                num_events=num_events,
                diff=PermutationDiff(num_events, p_idx, p_delay),
                with_next_indices=w_idx,
                unmatched_runs=tuple(zip(u_idx, u_cnt)),
                epoch=EpochLine(dict(zip(e_rank, e_clock))),
                sender_counts=tuple(zip(e_rank, e_count)),
                sender_min_clocks=tuple(
                    (r, c - g) for r, c, g in zip(e_rank, e_clock, e_min_gap)
                ),
                boundary_exceptions=tuple(zip(x_rank, x_clock)),
            )
        )
        limit -= 1
    return int(ends[i - 1]) + 1 if i else offset


def _decode_assist(callsite: str, data: bytes, offset: int, stop: int) -> CDCChunk:
    """The assist chunk whose record is ``data[offset:stop]``. Every plane is
    sized from the scalars and checked against the bytes present before any
    is unpacked; what the encoder cannot have written is refused."""
    flags, offset = decode_uvarint(data, offset)
    scalars = [0] * 6  # events, senders; runs, two Rice parameters, bits of the unary plane
    for j in range(6 if flags & _HAS_UNMATCHED else 2):
        scalars[j], offset = decode_uvarint(data, offset)
    n, d, m, k_gap, k_len, unary_bits = scalars
    rounds = bool(flags & _ROUNDS)
    if rounds and (not 2 < d <= MAX_ROUND_SENDERS or n % d):
        raise RecordFormatError(f"{n} events as permutation rounds of {d} senders")
    width = max(1, (d - 1).bit_length())
    senders = n // d * len(_words(d)[5]) if rounds else n * width  # [5]: a round's bits
    planes = (n * bool(flags & _HAS_WITH_NEXT), unary_bits, m * k_gap, m * k_len, senders)
    bounds = list(accumulate(planes, initial=0))
    run = offset + -(-bounds[-1] // 8)  # where the varint run starts
    if run > stop or not (d <= n and (d or not n)) or max(k_gap, k_len) > MAX_RICE_K:
        raise RecordFormatError(f"planes of {bounds[-1]} bits ({n} events, {d} senders, {m} runs "
                                f"at Rice {k_gap}/{k_len}) in a record of {stop - offset} bytes")
    if run > offset and data[run - 1] & (1 << -bounds[-1] % 8) - 1:
        raise RecordFormatError("pad bits behind the planes are not zero")
    bits = kernels.unpackbits(data, offset, run - offset)
    with_next, unary, low_gap, low_len, index = (bits[a:b] for a, b in zip(bounds, bounds[1:]))
    runs: tuple = ()
    if m:
        zeros = (unary == 0).nonzero()[0]
        if len(zeros) != 2 * m or zeros[-1] != unary_bits - 1:
            raise RecordFormatError(f"unary plane holds {len(zeros)} codes for {m} runs")
        zeros[1:] -= zeros[:-1]  # each code's length: its quotient and a zero
        zeros[0] += 1
        gaps = (zeros[:m] - 1 << k_gap) + kernels.from_bits(low_gap, m, k_gap)
        lengths = (zeros[m:] - 1 << k_len) + kernels.from_bits(low_len, m, k_len) + 1
        runs = tuple(zip((np.cumsum(gaps + 1) - 1).tolist(), lengths.tolist()))
    unsigned, signed, ends = decode_varint_stream(data[run:stop], 0)
    total = len(unsigned)
    i = bool(flags & _HAS_PERMUTATION)
    moved = unsigned[0] if i and total else 0
    pairs, odd = divmod(total - i - 2 * moved - 2 * d, 2)
    if pairs < 0 or odd or (int(ends[-1]) + 1 if total else 0) != stop - run:
        raise RecordFormatError(f"varint run of {total} values for {moved} moved, {d} senders")
    rows = {"permutation": moved, "epoch": d, "exceptions": pairs}
    columns = []
    for col in _ASSIST_VARINTS:
        body = (signed if col.signed else unsigned)[i : i + rows[col.table]]
        columns.append(tuple(lp_decode_exact(body) if col.lp else body))
        i += len(body)
    p_idx, p_delay, rank_gaps, steps, x_rank, x_clock = columns
    ranks = list(accumulate(rank_gaps, lambda rank, gap: rank + gap + 1))
    if ranks and ranks[-1] >= kernels.VALUE_LIMIT:  # (and numpy would index them as floats)
        raise RecordFormatError(f"sender rank {ranks[-1]} is past the format's limit")
    if rounds:
        index = _lehmer_senders(index, n, ranks)
        counts = [n // d] * d
    elif d > 1:
        index = kernels.from_bits(index, n, width)
        counts = np.bincount(index, minlength=d).tolist()
    else:  # at most one sender: its index is a zero per event
        counts = [0] if index.any() else [n] * d
    if len(counts) != d or not all(counts):
        raise RecordFormatError("sender index past the sender list, or a sender no event names")
    chunk = CDCChunk(
        callsite=callsite,
        num_events=n,
        diff=PermutationDiff(n, p_idx, p_delay),
        with_next_indices=tuple(with_next.nonzero()[0].tolist()),
        unmatched_runs=runs,
        # derived, not stored (DESIGN.md §5.9): the sender column's distinct
        # values and histogram are the epoch ranks and counts
        epoch=EpochLine(dict(zip(ranks, accumulate(steps)))),
        sender_counts=tuple(zip(ranks, counts)),
        boundary_exceptions=tuple(zip(x_rank, x_clock)),
        sender_sequence=tuple(index if rounds else
                              np.array(ranks)[index].tolist() if d > 1 else ranks * n),
    )
    if _flags(chunk, rounds or _is_rounds(index, d)) != flags:
        raise RecordFormatError(f"record flags {flags:#x} name a table the record does not hold")
    return chunk


# ---------------------------------------------------------------------------
# the container's string table
# ---------------------------------------------------------------------------


def _write_string_table(out: bytearray, strings: Sequence[str]) -> None:
    encode_uvarint(len(strings), out)
    for raw in (string.encode("utf-8") for string in strings):
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
