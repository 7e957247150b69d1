"""Reference implementations the CDC frame path is checked against.

These are *oracles*: code that used to be the production path, or that
spells the format out one Python step per byte or bit, kept only so tests
can assert the production codec gives the same bytes, the same chunks and
the same errors. They live under ``tests/`` on purpose — nothing on the
import path may call them — and they share no kernel with what they check.

* The **scalar varint / LP references** (``encode_svarint`` /
  ``decode_svarint``, ``*_array_scalar``, ``svarint_size``,
  ``array_payload_size``, ``lp_decode`` (Eq. 1 inverted for any
  coefficients), ``lp_encode_array`` / ``lp_decode_array`` and the
  range-switching ``lp_encode_auto`` / ``lp_decode_auto``) left ``src/`` when
  their last caller there did.
* The **paper-exact chunk layout**, column by column, as PR 14's per-column
  serializer wrote it: one length-prefixed varint array per column.
* The **version-5 assist record** (DESIGN.md §5.10), bit by bit: flags,
  counts and Rice scalars as varints; the plane section built and read one
  bit at a time as a string of ``0``/``1`` — a sender plane that is rounds
  of permutations as each round's Lehmer digits counted pair by pair and
  written as Python-int words; the varint run value by value. It follows
  the layout's prose, independently of ``formats.CDC_COLUMNS``.
* The **parent's encoder** of the commit before "each fact once" (7b1d829),
  bodies verbatim: ``encode_chunk`` with its batch and scalar helpers,
  ``encode_chunk_sequence`` and the per-sender slot ranking of
  ``assist_occurrence_indices``. It still computes every column an assist
  chunk no longer stores, and its ``diff`` is against Definition 6's
  ``(clock, rank)`` order, so tests can show that what the new layout
  derives equals what the old one stored and that both schedules deliver
  the same messages.
* The **object pipeline** that left ``src/`` when a chunk came to be built
  one way (``ColumnarTableBuilder`` → ``encode_table``): ``RecordTableBuilder``
  / ``build_tables`` and ``encode_chunk_scalar`` / ``encode_chunk_sequence``,
  one ``ReceiveEvent`` and one Python step per receive.
* The **redundancy-elimination transform** (Section 3.2), Figure 4 rows to
  the Figure 6 tables and back (``eliminate_redundancy`` /
  ``restore_redundancy``): the worked example's 55 → 23 values.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.size_model import SizeBreakdown
from repro.core.epoch import EpochLine
from repro.core.events import MFOutcome, QuintupleRow, ReceiveEvent
from repro.core.formats import (
    CDC_MAGIC,
    CLOCK_BITS,
    COUNT_BITS,
    FLAG_BITS,
    RANK_BITS,
    RAW_MAGIC,
    RE_MAGIC,
    WITH_NEXT_BITS,
    _read_string_table,
)
from repro.core.edit_distance import lis_length, validate_permutation
from repro.core.lp_encoding import PAPER_COEFFS, lp_encode
from repro.core.permutation import (
    PermutationDiff,
    encode_permutation,
    observed_as_reference_indices,
)
from repro.core.pipeline import CDCChunk, reference_order
from repro.core.record_table import RecordTable
from repro.core.varint import (
    decode_uvarint,
    encode_uvarint,
    uvarint_size,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import DecodingError, RecordFormatError
from repro.obs import get_registry, span

# ---------------------------------------------------------------------------
# scalar varint / LP references (moved out of src/repro/core)
# ---------------------------------------------------------------------------


def encode_svarint(value: int, out: bytearray) -> None:
    """Append a signed (zig-zag) varint to ``out``."""
    encode_uvarint(zigzag_encode(value), out)


def decode_svarint(buf: bytes, offset: int) -> tuple[int, int]:
    """Decode a signed (zig-zag) varint; return (value, next offset)."""
    raw, pos = decode_uvarint(buf, offset)
    return zigzag_decode(raw), pos


def lp_decode(errors: Sequence[int], coeffs: Sequence[int] = PAPER_COEFFS) -> list[int]:
    """Recursively restore the original values from prediction errors."""
    values: list[int] = []
    p = len(coeffs)
    for n, e in enumerate(errors):
        prediction = 0
        for i in range(1, p + 1):
            k = n - i
            if k >= 0:
                prediction += coeffs[i - 1] * values[k]
        values.append(e + prediction)
    return values


def _encode_body_scalar(vals: Sequence[int], encode) -> bytes:
    out = bytearray()
    for v in vals:
        encode(int(v), out)
    return bytes(out)


def _decode_varints_scalar(buf: bytes, pos: int, n: int, signed: bool) -> tuple[list[int], int]:
    decode = decode_svarint if signed else decode_uvarint
    values = []
    for _ in range(n):
        v, pos = decode(buf, pos)
        values.append(v)
    return values, pos


def encode_uvarint_array_scalar(values: Iterable[int]) -> bytes:
    """Scalar reference for :func:`encode_uvarint_array` (kernel oracle)."""
    vals = list(values)
    out = bytearray()
    encode_uvarint(len(vals), out)
    return bytes(out) + _encode_body_scalar(vals, encode_uvarint)


def encode_svarint_array_scalar(values: Iterable[int]) -> bytes:
    """Scalar reference for :func:`encode_svarint_array` (kernel oracle)."""
    vals = list(values)
    out = bytearray()
    encode_uvarint(len(vals), out)
    return bytes(out) + _encode_body_scalar(vals, encode_svarint)


def decode_uvarint_array_scalar(buf: bytes, offset: int) -> tuple[list[int], int]:
    """Scalar reference for :func:`decode_uvarint_array` (kernel oracle)."""
    n, pos = decode_uvarint(buf, offset)
    return _decode_varints_scalar(buf, pos, n, signed=False)


def decode_svarint_array_scalar(buf: bytes, offset: int) -> tuple[list[int], int]:
    """Scalar reference for :func:`decode_svarint_array` (kernel oracle)."""
    n, pos = decode_uvarint(buf, offset)
    return _decode_varints_scalar(buf, pos, n, signed=True)


def svarint_size(value: int) -> int:
    """Byte length :func:`encode_svarint` would produce for ``value``."""
    return uvarint_size(zigzag_encode(value))


def array_payload_size(values: Sequence[int], signed: bool) -> int:
    """Total encoded size of a length-prefixed varint array."""
    size = svarint_size if signed else uvarint_size
    return uvarint_size(len(values)) + sum(size(v) for v in values)


def lp_encode_array(values: np.ndarray) -> np.ndarray:
    """Vectorized order-2 paper predictor for int64 arrays.

    Equivalent to :func:`lp_encode` with :data:`PAPER_COEFFS`; used on hot
    paths (index columns can contain millions of entries).
    """
    x = np.asarray(values, dtype=np.int64)
    e = np.empty_like(x)
    if x.size == 0:
        return e
    e[0] = x[0]
    if x.size > 1:
        e[1] = x[1] - 2 * x[0]
    if x.size > 2:
        e[2:] = x[2:] - 2 * x[1:-1] + x[:-2]
    return e


def lp_decode_array(errors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lp_encode_array`.

    The recurrence ``x_n = e_n + 2*x_{n-1} - x_{n-2}`` telescopes: the first
    difference ``d_n = x_n - x_{n-1}`` satisfies ``d_n = d_{n-1} + e_n``, so
    ``x = cumsum(cumsum(e))`` — fully vectorized.
    """
    e = np.asarray(errors, dtype=np.int64)
    if e.size == 0:
        return e.copy()
    return np.cumsum(np.cumsum(e))


#: values with |x| below this bound cannot overflow int64 through the
#: order-2 predictor (|e| = |x - 2x' + x''| <= 4 * max|x|).
_ENCODE_SAFE_BOUND = 1 << 61

#: float64 shadow-decode threshold: if the reconstructed magnitudes stay
#: below this, the int64 cumsum path is provably exact (2x margin to 2**63,
#: far above float64 rounding error on the shadow).
_DECODE_SAFE_BOUND = float(1 << 62)


def lp_encode_auto(values: Sequence[int] | np.ndarray) -> np.ndarray | list[int]:
    """Order-2 LP encode, batched when safe.

    Returns the numpy fast path (:func:`lp_encode_array`) whenever the
    values provably cannot overflow int64 through the predictor, and the
    arbitrary-precision scalar path (:func:`lp_encode`) otherwise. Both
    produce identical value sequences; callers only see the container type.
    """
    try:
        x = np.asarray(values, dtype=np.int64)
    except (OverflowError, ValueError, TypeError):
        return lp_encode(_as_int_list(values))
    if x.size and max(int(x.max()), -int(x.min())) >= _ENCODE_SAFE_BOUND:
        return lp_encode(_as_int_list(values))
    return lp_encode_array(x)


def lp_decode_auto(errors: Sequence[int] | np.ndarray) -> np.ndarray | list[int]:
    """Order-2 LP decode, batched when safe (inverse of :func:`lp_encode_auto`).

    The double cumsum wraps silently on int64 overflow, so a float64 shadow
    decode bounds the reconstructed magnitudes first; anything close to the
    int64 limit takes the exact scalar path.
    """
    try:
        e = np.asarray(errors, dtype=np.int64)
    except (OverflowError, ValueError, TypeError):
        return lp_decode(_as_int_list(errors))
    if e.size:
        shadow = np.cumsum(np.cumsum(e.astype(np.float64)))
        if float(np.abs(shadow).max()) >= _DECODE_SAFE_BOUND:
            return lp_decode(_as_int_list(errors))
    return lp_decode_array(e)


def _as_int_list(values: Sequence[int] | np.ndarray) -> list[int]:
    # numpy int64 scalars wrap on overflow inside the pure-Python loops, so
    # the scalar fallback must see true Python ints
    if isinstance(values, np.ndarray):
        return values.tolist()
    return [int(v) for v in values]


encode_uvarint_array = encode_uvarint_array_scalar
encode_svarint_array = encode_svarint_array_scalar
decode_uvarint_array = decode_uvarint_array_scalar
decode_svarint_array = decode_svarint_array_scalar

# ---------------------------------------------------------------------------
# readers of the two baseline formats: nothing in src/ reads what
# ``Method.RAW`` / ``GZIP`` / ``CDC_RE`` write — they exist to be sized
# (Figure 13) — so their inverses live here. The raw reader is the per-bit
# one the writer's numpy planes replaced: an independent check of its bytes.
# ---------------------------------------------------------------------------


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
# the two chunk layouts, spelled out
# ---------------------------------------------------------------------------

_CDC_TABLE_COUNTERS = (
    "permutation",
    "with_next",
    "unmatched",
    "epoch",
    "exceptions",
    "assist",
)


def _write_string(out: bytearray, string: str) -> None:
    raw = string.encode("utf-8")
    encode_uvarint(len(raw), out)
    out += raw


def _read_string(data: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_uvarint(data, offset)
    if offset + length > len(data):
        raise RecordFormatError("string table truncated")
    try:
        return data[offset : offset + length].decode("utf-8"), offset + length
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"string table: {exc}") from None


def _paper_columns(chunk: CDCChunk) -> tuple[list, list]:
    """(table, array bytes) per column of a paper-exact chunk, in order."""
    pairs = chunk.epoch.as_sorted_pairs()
    ranks = [r for r, _ in pairs]
    counts_by_rank = dict(chunk.sender_counts)
    mins_by_rank = dict(chunk.sender_min_clocks)
    if sorted(counts_by_rank) != ranks or sorted(mins_by_rank) != ranks:
        raise RecordFormatError("epoch / count / min-clock ranks disagree")
    return [
        ("permutation", encode_svarint_array(lp_encode(chunk.diff.indices))),
        ("permutation", encode_svarint_array(chunk.diff.delays)),
        ("with_next", encode_svarint_array(lp_encode(chunk.with_next_indices))),
        ("unmatched", encode_svarint_array(lp_encode([i for i, _ in chunk.unmatched_runs]))),
        ("unmatched", encode_uvarint_array([c for _, c in chunk.unmatched_runs])),
        ("epoch", encode_svarint_array(lp_encode(ranks))),
        ("epoch", encode_svarint_array([c for _, c in pairs])),
        ("epoch", encode_uvarint_array([counts_by_rank[r] for r in ranks])),
        # first clock per sender, stored as the (>= 0) gap below the epoch
        # ceiling — zero for single-receive senders, tiny after varints.
        ("epoch", encode_uvarint_array([clock - mins_by_rank[r] for r, clock in pairs])),
        # boundary exceptions (DESIGN.md §5.2): usually both arrays empty
        ("exceptions", encode_uvarint_array([r for r, _ in chunk.boundary_exceptions])),
        ("exceptions", encode_svarint_array([c for _, c in chunk.boundary_exceptions])),
    ]


def _paper_record_oracle(chunk: CDCChunk, callsite_id: int, sizes: dict) -> bytes:
    out = bytearray()
    encode_uvarint(callsite_id << 1, out)
    encode_uvarint(chunk.num_events, out)
    sizes["header"] += len(out)
    for table, column in _paper_columns(chunk):
        sizes[table] += len(column)
        out += column
    return bytes(out)


#: the largest Rice parameter and unary plane the layout allows (§5.10)
MAX_RICE_K, MAX_UNARY_BITS, MAX_ROUND_SENDERS = 15, 8 << 22, 1024


def rice_parameter(values: Sequence[int]) -> int:
    """floor(log2(mean)), closed form, capped."""
    return min(MAX_RICE_K, max(1, sum(values) // len(values)).bit_length() - 1)


def _assist_flags(chunk: CDCChunk) -> int:
    ranks = sorted(set(chunk.sender_sequence))
    return (
        1
        + 2 * bool(chunk.diff.indices)
        + 4 * bool(chunk.with_next_indices)
        + 8 * bool(chunk.unmatched_runs)
        + 16 * bool(chunk.boundary_exceptions)
        + 32 * bool(permutation_rounds([ranks.index(s) for s in chunk.sender_sequence], len(ranks)))
    )


def permutation_rounds(index: Sequence[int], d: int) -> list[list[int]]:
    """The sender index cut into rounds of ``d`` events, 3 to 1,024, when each
    names every sender once; otherwise no rounds."""
    if not 2 < d <= MAX_ROUND_SENDERS or len(index) % d:
        return []
    rounds = [list(index[i : i + d]) for i in range(0, len(index), d)]
    return [] if any(sorted(r) != list(range(d)) for r in rounds) else rounds


def word_radices(d: int) -> list[list[int]]:
    """Radices ``d, d-1, ..., 2`` in words whose product is at most 2**64."""
    words: list[list[int]] = []
    for radix in range(d, 1, -1):
        if not words or int(np.prod(words[-1], dtype=object)) * radix > 2**64:
            words.append([])
        words[-1].append(radix)
    return words


def _word_width(radices: list[int]) -> int:
    return (int(np.prod(radices, dtype=object)) - 1).bit_length()


def sender_plane_bits(flags: int, n: int, d: int) -> int:
    """Bits of an assist record's sender plane: packed index, or Lehmer words."""
    if flags & 32:
        return n // d * sum(map(_word_width, word_radices(d)))
    return n * max(1, (d - 1).bit_length())


def lehmer_plane_oracle(rounds: list[list[int]]) -> str:
    """Each round's Lehmer code — digit i: the later positions with a smaller
    index — as words, the first digit least significant, high bit first."""
    bits = ""
    for r in rounds:
        digits = [sum(later < value for later in r[i + 1 :]) for i, value in enumerate(r)]
        for radices in word_radices(len(r)):
            word, place = 0, 1
            for radix in radices:
                word += digits.pop(0) * place
                place *= radix
            bits += format(word, "b").zfill(_word_width(radices))
    return bits


def lehmer_index_oracle(plane: str, n: int, d: int) -> list[int]:
    """Inverse of :func:`lehmer_plane_oracle`; a word at or past its radix product is refused."""
    index, cursor = [], 0
    for _ in range(n // d):
        digits = []
        for radices in word_radices(d):
            width = _word_width(radices)
            word = int(plane[cursor : cursor + width], 2)
            cursor += width
            if word >= int(np.prod(radices, dtype=object)):
                raise RecordFormatError("a permutation word at or past its radix product")
            for radix in radices:
                word, digit = divmod(word, radix)
                digits.append(digit)
        left = list(range(d))
        index += [left.pop(digit) for digit in digits + [0]]
    return index


def assist_record_oracle(chunk: CDCChunk, sizes: dict | None = None) -> bytes:
    """A version-5 assist record (DESIGN.md §5.10), one bit at a time: the
    plane section is built as a string of ``0``/``1``."""
    sizes = sizes if sizes is not None else dict.fromkeys((*_CDC_TABLE_COUNTERS, "header"), 0)
    n, senders = chunk.num_events, chunk.sender_sequence
    pairs = chunk.epoch.as_sorted_pairs()
    ranks = [r for r, _ in pairs]
    if len(senders) != n or sorted(set(senders)) != ranks:
        raise RecordFormatError("event count or epoch ranks are not the sender column's")
    out = bytearray()
    for scalar in (_assist_flags(chunk), n, len(ranks)):
        encode_uvarint(scalar, out)
    planes: list[tuple[str, str]] = []  # (table, bits)
    with_next = chunk.with_next_indices
    if with_next:
        if any(a >= b for a, b in zip(with_next, with_next[1:])) or not (
            0 <= with_next[0] and with_next[-1] < n
        ):
            raise ValueError("with_next indices must ascend within the chunk")
        planes.append(("with_next", "".join("01"[p in with_next] for p in range(n))))
    if chunk.unmatched_runs:
        gaps, previous = [], -1
        for position, _ in chunk.unmatched_runs:
            gaps.append(position - previous - 1)
            previous = position
        lengths = [count - 1 for _, count in chunk.unmatched_runs]
        if min(gaps + lengths) < 0:
            raise ValueError("unmatched runs must ascend and hold a test each")
        k_gap, k_len = rice_parameter(gaps), rice_parameter(lengths)
        unary_bits = sum((g >> k_gap) + 1 for g in gaps) + sum((c >> k_len) + 1 for c in lengths)
        for scalar in (len(gaps), k_gap, k_len, unary_bits):
            encode_uvarint(scalar, out)
        if unary_bits > MAX_UNARY_BITS:
            raise ValueError("an unmatched run too long for the layout")
        unary = "".join("1" * (g >> k_gap) + "0" for g in gaps)
        unary += "".join("1" * (c >> k_len) + "0" for c in lengths)
        low = "".join(format(g, "b").zfill(k_gap)[-k_gap:] for g in gaps) if k_gap else ""
        low += "".join(format(c, "b").zfill(k_len)[-k_len:] for c in lengths) if k_len else ""
        planes.append(("unmatched", unary + low))
    width = max(1, (len(ranks) - 1).bit_length())
    index = [ranks.index(s) for s in senders]
    rounds = permutation_rounds(index, len(ranks))
    planes.append(("assist", lehmer_plane_oracle(rounds) if rounds else "".join(
        format(i, "b").zfill(width) for i in index)))
    sizes["header"] += len(out)
    section = "".join(bits for _, bits in planes)
    section += "0" * (-len(section) % 8)
    out += bytes(int(section[i : i + 8], 2) for i in range(0, len(section), 8))
    # a plane's bytes are the byte ends its bits cross; the pad is the last one's
    crossed = total = 0
    for table, bits in planes:
        total += len(bits)
        sizes[table] += -(-total // 8) - crossed
        crossed = -(-total // 8)
    mark = len(out)
    if chunk.diff.indices:
        encode_uvarint(len(chunk.diff.indices), out)
        for value in (*lp_encode(chunk.diff.indices), *chunk.diff.delays):
            encode_svarint(value, out)
    sizes["permutation"] += len(out) - mark
    mark = len(out)
    for rank, below in zip(ranks, [-1] + ranks):
        encode_uvarint(rank - below - 1, out)
    for (_, ceiling), (_, below) in zip(pairs, [(None, 0)] + pairs):
        encode_svarint(ceiling - below, out)
    sizes["epoch"] += len(out) - mark
    mark = len(out)
    for rank, _ in chunk.boundary_exceptions:
        encode_uvarint(rank, out)
    for _, clock in chunk.boundary_exceptions:
        encode_svarint(clock, out)
    sizes["exceptions"] += len(out) - mark
    return bytes(out)


def assist_chunk_oracle(callsite: str, data: bytes, offset: int, stop: int) -> CDCChunk:
    """Inverse of :func:`assist_record_oracle` over ``data[offset:stop]``."""
    flags, offset = decode_uvarint(data, offset)
    n, offset = decode_uvarint(data, offset)
    d, offset = decode_uvarint(data, offset)
    m = k_gap = k_len = unary_bits = 0
    if flags & 8:
        m, offset = decode_uvarint(data, offset)
        k_gap, offset = decode_uvarint(data, offset)
        k_len, offset = decode_uvarint(data, offset)
        unary_bits, offset = decode_uvarint(data, offset)
    if flags & 32 and (not 2 < d <= MAX_ROUND_SENDERS or n % d):
        raise RecordFormatError("not whole permutation rounds of 3 to 1024 senders")
    width = max(1, (d - 1).bit_length())
    senders = sender_plane_bits(flags, n, d)
    total = (n if flags & 4 else 0) + unary_bits + m * (k_gap + k_len) + senders
    run = offset + -(-total // 8)
    if run > stop or d > n or (n and not d) or k_gap > MAX_RICE_K or k_len > MAX_RICE_K:
        raise RecordFormatError("planes do not fit the record, or its scalars are off")
    section = "".join(format(byte, "08b") for byte in data[offset:run])
    if "1" in section[total:]:
        raise RecordFormatError("pad bits behind the planes are not zero")
    cursor = 0

    def take(count: int) -> str:
        nonlocal cursor
        cursor += count
        return section[cursor - count : cursor]

    with_next = tuple(p for p, bit in enumerate(take(n if flags & 4 else 0)) if bit == "1")
    unary = take(unary_bits)
    runs = []
    if m:
        if unary.count("0") != 2 * m or not unary.endswith("0"):
            raise RecordFormatError("unary plane does not hold two codes per run")
        quotients = [len(ones) for ones in unary.split("0")[:-1]]
        gaps = [(q << k_gap) + int(take(k_gap) or "0", 2) for q in quotients[:m]]
        lengths = [(q << k_len) + int(take(k_len) or "0", 2) + 1 for q in quotients[m:]]
        position = -1
        for gap, length in zip(gaps, lengths):
            position += gap + 1
            runs.append((position, length))
    else:
        take(m * (k_gap + k_len))
    if flags & 32:
        index = lehmer_index_oracle(take(senders), n, d)
    else:
        index = [int(take(width), 2) for _ in range(n)]
    values = []  # (unsigned reading, zig-zag reading) of the varint run
    while run < stop:
        try:
            value, after = decode_uvarint(data, run)
        except RecordFormatError:
            break
        if after > stop:
            break
        values.append((value, zigzag_decode(value)))
        run = after
    if run != stop:
        raise RecordFormatError("bytes behind the varint run")
    values.reverse()
    moved = values.pop()[0] if flags & 2 and values else 0
    exceptions, odd = divmod(len(values) - 2 * moved - 2 * d, 2)
    if exceptions < 0 or odd:
        raise RecordFormatError("varint run does not hold its columns")
    p_idx = lp_decode([values.pop()[1] for _ in range(moved)])
    p_delay = [values.pop()[1] for _ in range(moved)]
    ranks, rank = [], -1
    for _ in range(d):
        rank += values.pop()[0] + 1
        ranks.append(rank)
    if rank >= 1 << 60:
        raise RecordFormatError("sender rank past the format's limit")
    ceilings = list(accumulate(values.pop()[1] for _ in range(d)))
    x_rank = [values.pop()[0] for _ in range(exceptions)]
    x_clock = [values.pop()[1] for _ in range(exceptions)]
    if any(i >= d for i in index) or set(index) != set(range(d)):
        raise RecordFormatError("sender index past the sender list, or a sender unused")
    chunk = CDCChunk(
        callsite=callsite,
        num_events=n,
        diff=PermutationDiff(n, tuple(p_idx), tuple(p_delay)),
        with_next_indices=with_next,
        unmatched_runs=tuple(runs),
        epoch=EpochLine(dict(zip(ranks, ceilings))),
        sender_counts=tuple((rank, index.count(i)) for i, rank in enumerate(ranks)),
        boundary_exceptions=tuple(zip(x_rank, x_clock)),
        sender_sequence=tuple(ranks[i] for i in index),
    )
    if _assist_flags(chunk) != flags:
        raise RecordFormatError("record flags name a table the record does not hold")
    return chunk


def _paper_chunk_oracle(callsites: Sequence[str], data: bytes, offset: int) -> tuple[CDCChunk, int]:
    head, offset = decode_uvarint(data, offset)
    cs = head >> 1
    if cs >= len(callsites):
        raise RecordFormatError(f"callsite id {cs} out of range")
    num_events, offset = decode_uvarint(data, offset)
    p_idx_lp, offset = decode_svarint_array(data, offset)
    p_delay, offset = decode_svarint_array(data, offset)
    w_idx_lp, offset = decode_svarint_array(data, offset)
    u_idx_lp, offset = decode_svarint_array(data, offset)
    u_cnt, offset = decode_uvarint_array(data, offset)
    e_rank_lp, offset = decode_svarint_array(data, offset)
    e_clock, offset = decode_svarint_array(data, offset)
    e_count, offset = decode_uvarint_array(data, offset)
    e_min_gap, offset = decode_uvarint_array(data, offset)
    x_rank, offset = decode_uvarint_array(data, offset)
    x_clock, offset = decode_svarint_array(data, offset)
    if len(x_rank) != len(x_clock):
        raise RecordFormatError("boundary-exception columns disagree")
    p_idx = lp_decode(p_idx_lp)
    if len(p_idx) != len(p_delay):
        raise RecordFormatError("permutation columns disagree")
    u_idx = lp_decode(u_idx_lp)
    if len(u_idx) != len(u_cnt):
        raise RecordFormatError("unmatched columns disagree")
    e_rank = lp_decode(e_rank_lp)
    if not (len(e_rank) == len(e_clock) == len(e_count) == len(e_min_gap)):
        raise RecordFormatError("epoch columns disagree")
    chunk = CDCChunk(
        callsite=callsites[cs],
        num_events=num_events,
        diff=PermutationDiff(num_events, tuple(p_idx), tuple(p_delay)),
        with_next_indices=tuple(lp_decode(w_idx_lp)),
        unmatched_runs=tuple(zip(u_idx, u_cnt)),
        epoch=EpochLine(dict(zip(e_rank, e_clock))),
        sender_counts=tuple(zip(e_rank, e_count)),
        sender_min_clocks=tuple((r, c - g) for r, c, g in zip(e_rank, e_clock, e_min_gap)),
        boundary_exceptions=tuple(zip(x_rank, x_clock)),
    )
    return chunk, offset


def serialize_cdc_chunks_oracle(chunks: Sequence[CDCChunk]) -> bytes:
    """The multi-chunk container: magic, string table, chunk count, then per
    chunk ``callsite id << 1 | assist`` — a paper-exact chunk's columns follow
    its head; an assist chunk's record follows its length."""
    sizes = dict.fromkeys((*_CDC_TABLE_COUNTERS, "header"), 0)
    out = bytearray(CDC_MAGIC)
    callsites = sorted({c.callsite for c in chunks})
    encode_uvarint(len(callsites), out)
    for callsite in callsites:
        _write_string(out, callsite)
    encode_uvarint(len(chunks), out)
    for chunk in chunks:
        callsite_id = callsites.index(chunk.callsite)
        if chunk.sender_sequence is None:
            out += _paper_record_oracle(chunk, callsite_id, sizes)
        else:
            record = assist_record_oracle(chunk, sizes)
            encode_uvarint(callsite_id << 1 | 1, out)
            encode_uvarint(len(record), out)
            out += record
    registry = get_registry()
    if registry.enabled:
        registry.counter("format.cdc.serialize_calls").add()
        registry.counter("format.cdc.chunks_out").add(len(chunks))
        registry.counter("format.cdc.bytes_out").add(len(out))
        for table in _CDC_TABLE_COUNTERS:
            registry.counter(f"format.cdc.{table}_bytes").add(sizes[table])
    return bytes(out)


def deserialize_cdc_chunks_oracle(data: bytes) -> list[CDCChunk]:
    if data[:4] != CDC_MAGIC:
        raise RecordFormatError("bad CDC-record magic")
    count, offset = decode_uvarint(data, 4)
    callsites = []
    for _ in range(count):
        callsite, offset = _read_string(data, offset)
        callsites.append(callsite)
    n, offset = decode_uvarint(data, offset)
    chunks: list[CDCChunk] = []
    for _ in range(n):
        head, after = decode_uvarint(data, offset)
        if not head & 1:
            chunk, offset = _paper_chunk_oracle(callsites, data, offset)
        else:
            length, start = decode_uvarint(data, after)
            offset = start + length
            if head >> 1 >= len(callsites) or offset > len(data):
                raise RecordFormatError("callsite id out of range, or record truncated")
            chunk = assist_chunk_oracle(callsites[head >> 1], data, start, offset)
        chunks.append(chunk)
    return chunks


def encode_frame_payload_oracle(chunk: CDCChunk) -> bytes:
    """What a frame deflates: the CRC-32 of the callsite's name, four bytes
    little-endian, then the chunk's record."""
    out = bytearray(zlib.crc32(chunk.callsite.encode("utf-8")).to_bytes(4, "little"))
    sizes = dict.fromkeys((*_CDC_TABLE_COUNTERS, "header"), 0)
    if chunk.sender_sequence is None:
        return bytes(out) + _paper_record_oracle(chunk, 0, sizes)
    return bytes(out) + assist_record_oracle(chunk, sizes)


def decode_frame_payload_oracle(data: bytes, callsites: Mapping[int, str] | None = None) -> CDCChunk:
    """A table maps id -> name; without one, a chunk is called ``#`` and its
    id in eight hex digits."""
    if len(data) < 4:
        raise RecordFormatError("frame payload shorter than its callsite id")
    cid, offset = int.from_bytes(data[:4], "little"), 4
    if callsites is None:
        callsite = f"#{cid:08x}"
    elif cid in callsites:
        callsite = callsites[cid]
    else:
        raise RecordFormatError(f"callsite id {cid:#010x} is not in the names table")
    if decode_uvarint(data, offset)[0] & 1:
        return assist_chunk_oracle(callsite, data, offset, len(data))
    chunk, end = _paper_chunk_oracle([callsite], data, offset)
    if end != len(data):
        raise RecordFormatError("frame payload is not exactly one chunk")
    return chunk


def chunk_breakdown_oracle(chunk: CDCChunk, callsite_id: int = 0) -> SizeBreakdown:
    """Exact serialized byte counts of one chunk's record, table by table
    (the callsite a frame payload opens with is ``archive_breakdown``'s)."""
    sizes = dict.fromkeys((*_CDC_TABLE_COUNTERS, "header"), 0)
    if chunk.sender_sequence is None:
        _paper_record_oracle(chunk, callsite_id, sizes)
    else:
        assist_record_oracle(chunk, sizes)
    return SizeBreakdown(chunks=1, events=chunk.num_events, **sizes)


# ---------------------------------------------------------------------------
# The parent's encoder (commit 7b1d829), verbatim but for the ``_oracle``
# suffix on the four public names: every assist chunk's diff is against
# Definition 6's (clock, rank) order, and epoch ranks, per-sender counts and
# first clocks are computed from the events for both layouts.
# ---------------------------------------------------------------------------


def encode_chunk_oracle(
    table: RecordTable,
    replay_assist: bool = False,
    prior_ceilings: Mapping[int, int] | None = None,
) -> CDCChunk:
    """CDC-encode one record-table chunk.

    ``replay_assist=True`` additionally stores the observed-order sender
    column, enabling deterministic online replay (DESIGN.md §5.6); the
    default reproduces the paper's format exactly.

    ``prior_ceilings`` maps sender rank to the highest clock recorded for
    it in *earlier* chunks of the same callsite; events at or below their
    sender's prior ceiling become boundary exceptions (see CDCChunk).
    """
    matched = table.matched
    with span("cdc.encode_chunk", callsite=table.callsite, events=len(matched)):
        encoded = _encode_matched_batch(matched, prior_ceilings)
        if encoded is None:
            encoded = _encode_matched_scalar(matched, prior_ceilings)
        observed_indices, sender_counts, sender_min_clocks, exceptions = encoded
        chunk = CDCChunk(
            callsite=table.callsite,
            num_events=len(matched),
            # both index paths construct a valid permutation (inverse argsort /
            # unique-key lookup), so the O(n) re-validation is skipped
            diff=encode_permutation(observed_indices, validated=True),
            with_next_indices=table.with_next_indices,
            unmatched_runs=table.unmatched_runs,
            epoch=EpochLine.from_events(matched),
            sender_counts=sender_counts,
            sender_min_clocks=sender_min_clocks,
            boundary_exceptions=exceptions,
            sender_sequence=tuple(ev.rank for ev in matched)
            if replay_assist
            else None,
        )
    registry = get_registry()
    if registry.enabled:
        registry.counter("encode.chunks").add()
        registry.counter("encode.events").add(len(matched))
        registry.counter("encode.moved_events").add(chunk.diff.num_moved)
    return chunk


def _encode_matched_batch(
    matched: Sequence[ReceiveEvent],
    prior_ceilings: Mapping[int, int] | None,
) -> tuple | None:
    """Vectorized permutation indices + per-sender stats for one chunk.

    Returns ``None`` when any rank/clock falls outside int64 (arbitrary
    precision: the scalar path handles it). Results are identical to
    :func:`_encode_matched_scalar` — asserted by the pipeline property
    tests.
    """
    n = len(matched)
    if n == 0:
        return [], (), (), ()
    try:
        ranks = np.fromiter((ev.rank for ev in matched), np.int64, count=n)
        clocks = np.fromiter((ev.clock for ev in matched), np.int64, count=n)
        order = np.lexsort((ranks, clocks))  # Definition 6: clock, then rank
        sorted_ranks = ranks[order]
        sorted_clocks = clocks[order]
        if n > 1 and bool(
            (
                (sorted_clocks[1:] == sorted_clocks[:-1])
                & (sorted_ranks[1:] == sorted_ranks[:-1])
            ).any()
        ):
            raise DecodingError("reference keys are not unique")
        # observed position p holds the event at reference slot inv[p]
        inv = np.empty(n, dtype=np.intp)
        inv[order] = np.arange(n, dtype=np.intp)
        # per-sender count and min clock: ``sorted_ranks`` is in ascending
        # clock order, so each sender's first occurrence is its min clock
        uniq, first_idx, rank_counts = np.unique(
            sorted_ranks, return_index=True, return_counts=True
        )
        sender_counts = tuple(zip(uniq.tolist(), rank_counts.tolist()))
        sender_min_clocks = tuple(
            zip(uniq.tolist(), sorted_clocks[first_idx].tolist())
        )
        exceptions: tuple = ()
        if prior_ceilings:
            ceil = np.fromiter(
                (prior_ceilings.get(int(r), -1) for r in uniq),
                np.int64,
                count=uniq.shape[0],
            )
            over = clocks <= ceil[np.searchsorted(uniq, ranks)]
            if bool(over.any()):
                exceptions = tuple(
                    sorted(zip(ranks[over].tolist(), clocks[over].tolist()))
                )
        return inv.tolist(), sender_counts, sender_min_clocks, exceptions
    except OverflowError:
        return None


def _encode_matched_scalar(
    matched: Sequence[ReceiveEvent],
    prior_ceilings: Mapping[int, int] | None,
) -> tuple:
    """Reference implementation of :func:`_encode_matched_batch`."""
    ref = reference_order(matched)
    observed_indices = observed_as_reference_indices(
        [ev.key for ev in matched], [ev.key for ev in ref]
    )
    counts: dict[int, int] = {}
    min_clocks: dict[int, int] = {}
    for ev in matched:
        counts[ev.rank] = counts.get(ev.rank, 0) + 1
        if ev.rank not in min_clocks or ev.clock < min_clocks[ev.rank]:
            min_clocks[ev.rank] = ev.clock
    exceptions: list[tuple[int, int]] = []
    if prior_ceilings:
        for ev in matched:
            if ev.clock <= prior_ceilings.get(ev.rank, -1):
                exceptions.append((ev.rank, ev.clock))
    return (
        observed_indices,
        tuple(sorted(counts.items())),
        tuple(sorted(min_clocks.items())),
        tuple(sorted(exceptions)),
    )


def encode_chunk_sequence_oracle(
    tables: Sequence[RecordTable], replay_assist: bool = False
) -> list[CDCChunk]:
    """Encode consecutive chunks of ONE callsite with boundary tracking.

    Mirrors what the online recorder does: each chunk is encoded against
    the running per-sender ceilings of its predecessors so boundary
    exceptions are marked (DESIGN.md §5.2).
    """
    ceilings: dict[int, int] = {}
    chunks: list[CDCChunk] = []
    for table in tables:
        chunk = encode_chunk_oracle(
            table, replay_assist=replay_assist, prior_ceilings=ceilings
        )
        for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
            if ceilings.get(sender, -1) < ceiling:
                ceilings[sender] = ceiling
        chunks.append(chunk)
    return chunks


def assist_occurrence_indices_oracle(
    chunk: CDCChunk, order: Sequence[int] | None = None
) -> list[int]:
    """For each observed position, which arrival from its sender it is.

    With the replay-assist column, the event at observed position ``p`` is
    the ``k``-th message (1-based) its sender contributes to the chunk *in
    clock order*. ``k`` is derivable without any clock: a sender's slots in
    the reference order are its events in clock order, and the stored
    permutation exposes every position's reference slot — so ``k`` is the
    rank of ``order[p]`` among the sender's own slots.

    ``order`` is the chunk's decoded permutation, for callers that already
    hold it; it is decoded here otherwise.
    """
    if chunk.sender_sequence is None:
        raise DecodingError("chunk carries no replay-assist column")
    if order is None:
        from repro.core.permutation import decode_permutation

        order = decode_permutation(chunk.diff)
    slots_by_sender: dict[int, list[int]] = {}
    for sender, slot in zip(chunk.sender_sequence, order):
        slots_by_sender.setdefault(sender, []).append(slot)
    # ``order`` is a permutation, so one flat list indexed by reference
    # slot holds every sender's ranking
    rank_of_slot = [0] * len(order)
    for slots in slots_by_sender.values():
        slots.sort()
        for k, slot in enumerate(slots, start=1):
            rank_of_slot[slot] = k
    return [rank_of_slot[slot] for slot in order]


# ---------------------------------------------------------------------------
# The object pipeline: one ``ReceiveEvent`` per receive, a Python pass per
# column. Left src/ (``core/record_table.py``, ``core/pipeline.py``) when
# ``core/compression.py`` stopped being its last caller there; bodies
# verbatim, ``_encode_matched_scalar`` being the one above. What
# ``columnar.ColumnarTableBuilder`` / ``build_columnar_tables`` /
# ``encode_table`` are held equal to.
# ---------------------------------------------------------------------------


@dataclass
class RecordTableBuilder:
    """Streaming builder: MF outcomes in, :class:`RecordTable` chunks out."""

    callsite: str
    matched: list[ReceiveEvent] = field(default_factory=list)
    with_next_indices: list[int] = field(default_factory=list)
    unmatched_runs: list[tuple[int, int]] = field(default_factory=list)
    _pending_unmatched: int = 0

    def add(self, outcome: MFOutcome) -> None:
        """Record one MF call outcome."""
        if outcome.callsite != self.callsite:
            raise ValueError(
                f"outcome for callsite {outcome.callsite!r} fed to builder "
                f"for {self.callsite!r}"
            )
        events = outcome.matched
        if not events:
            self._pending_unmatched += 1
            return
        matched = self.matched
        if self._pending_unmatched:
            self.unmatched_runs.append((len(matched), self._pending_unmatched))
            self._pending_unmatched = 0
        if len(events) == 1:  # the overwhelmingly common case
            matched.append(events[0])
            return
        base = len(matched)
        self.with_next_indices.extend(range(base, base + len(events) - 1))
        matched.extend(events)

    @property
    def num_events(self) -> int:
        return len(self.matched)

    def flush(self) -> RecordTable:
        """Seal the current chunk and reset the builder.

        Trailing unmatched tests are attached to the sealed chunk (index ==
        num_events) so that replay reproduces them before the next chunk's
        first receive.
        """
        if self._pending_unmatched:
            self.unmatched_runs.append((len(self.matched), self._pending_unmatched))
            self._pending_unmatched = 0
        table = RecordTable(
            self.callsite,
            tuple(self.matched),
            tuple(self.with_next_indices),
            tuple(self.unmatched_runs),
        )
        self.matched.clear()
        self.with_next_indices.clear()
        self.unmatched_runs.clear()
        return table

    @property
    def dirty(self) -> bool:
        """True if the builder holds unflushed events."""
        return bool(self.matched or self._pending_unmatched)


def build_tables(
    outcomes: Sequence[MFOutcome], chunk_events: int | None = None
) -> dict[str, list[RecordTable]]:
    """Group an outcome stream by callsite and build chunked tables.

    Convenience for tests and offline analysis; the online path lives in
    :mod:`repro.replay.recorder`.
    """
    builders: dict[str, RecordTableBuilder] = {}
    chunks: dict[str, list[RecordTable]] = {}
    for outcome in outcomes:
        builder = builders.get(outcome.callsite)
        if builder is None:
            builder = builders[outcome.callsite] = RecordTableBuilder(outcome.callsite)
            chunks[outcome.callsite] = []
        builder.add(outcome)
        if chunk_events is not None and builder.num_events >= chunk_events:
            chunks[outcome.callsite].append(builder.flush())
    for callsite, builder in builders.items():
        if builder.dirty:
            chunks[callsite].append(builder.flush())
    return chunks


def encode_chunk_scalar(
    table: RecordTable,
    replay_assist: bool = False,
    prior_ceilings: Mapping[int, int] | None = None,
) -> CDCChunk:
    """Reference implementation of ``columnar.encode_table`` on Python ints."""
    matched = table.matched
    with span("cdc.encode_chunk", callsite=table.callsite, events=len(matched)):
        observed_indices, sender_counts, sender_min_clocks, exceptions = (
            _encode_matched_scalar(matched, prior_ceilings)
        )
        if replay_assist:
            observed_indices, sender_min_clocks = _sender_order_indices(matched), ()
        chunk = CDCChunk(
            callsite=table.callsite,
            num_events=len(matched),
            # a unique-key lookup constructs a valid permutation, so the O(n)
            # re-validation is skipped
            diff=encode_permutation(observed_indices, validated=True),
            with_next_indices=table.with_next_indices,
            unmatched_runs=table.unmatched_runs,
            epoch=EpochLine.from_events(matched),
            sender_counts=sender_counts,
            sender_min_clocks=sender_min_clocks,
            boundary_exceptions=exceptions,
            sender_sequence=tuple(ev.rank for ev in matched)
            if replay_assist
            else None,
        )
    registry = get_registry()
    if registry.enabled:
        registry.counter("encode.chunks").add()
        registry.counter("encode.events").add(len(matched))
        registry.counter("encode.moved_events").add(chunk.diff.num_moved)
    return chunk


def _sender_order_indices(matched: Sequence[ReceiveEvent]) -> list[int]:
    """Per observed position, its event's slot in an assist chunk's
    reference order (DESIGN.md §5.9): a sender's k-th-smallest-clock receive
    belongs where that sender occurs for the k-th time. The identity unless
    one sender's messages were observed out of clock order (Figure 3)."""
    own: dict[int, list[int]] = {}
    for p, ev in enumerate(matched):
        own.setdefault(ev.rank, []).append(p)
    indices = list(range(len(matched)))
    for slots in own.values():
        for slot, p in zip(slots, sorted(slots, key=lambda p: matched[p].clock)):
            indices[p] = slot
    return indices


def encode_chunk_sequence(
    tables: Sequence[RecordTable], replay_assist: bool = False, encode=encode_chunk_scalar
) -> list[CDCChunk]:
    """Encode consecutive chunks of ONE callsite with boundary tracking.

    Mirrors what the online recorder does: each chunk is encoded against
    the running per-sender ceilings of its predecessors so boundary
    exceptions are marked (DESIGN.md §5.2). ``encode`` is the chunk encoder:
    the scalar reference, or a test's adapter to ``encode_table``.
    """
    ceilings: dict[int, int] = {}
    chunks: list[CDCChunk] = []
    for table in tables:
        chunk = encode(table, replay_assist=replay_assist, prior_ceilings=ceilings)
        for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
            if ceilings.get(sender, -1) < ceiling:
                ceilings[sender] = ceiling
        chunks.append(chunk)
    return chunks


# ---------------------------------------------------------------------------
# The LIS edit distance and its cross-check, the generic Myers diff
# ---------------------------------------------------------------------------


def permutation_edit_distance(b: Sequence[int]) -> int:
    """Insert/delete edit distance between ``b`` and the identity 0..N-1:
    one deletion and one insertion per moved element (the "< x / > x" pairs)."""
    validate_permutation(b)
    return 2 * (len(b) - lis_length(b))


def myers_edit_distance(a: Sequence, b: Sequence) -> int:
    """Insert/delete edit distance between arbitrary sequences (Myers O(ND)).

    Used as an oracle: for a permutation ``b`` vs the identity this must
    agree with :func:`permutation_edit_distance`.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return n + m
    max_d = n + m
    # v[k] = furthest x on diagonal k (offset by max_d)
    v = [0] * (2 * max_d + 1)
    for d in range(max_d + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[max_d + k - 1] < v[max_d + k + 1]):
                x = v[max_d + k + 1]  # move down (insert from b)
            else:
                x = v[max_d + k - 1] + 1  # move right (delete from a)
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[max_d + k] = x
            if x >= n and y >= m:
                return d
    raise AssertionError("unreachable: Myers diff must terminate")  # pragma: no cover


def myers_edit_script(a: Sequence, b: Sequence) -> list[tuple[str, object]]:
    """Full insert/delete edit script ('=', '<' delete, '>' insert).

    A simple LCS-DP implementation (O(N*M)); only used on small inputs by
    tests and the worked-example benchmark, where clarity beats speed.
    """
    n, m = len(a), len(b)
    # lcs[i][j] = LCS length of a[i:], b[j:]
    lcs = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = lcs[i]
        nxt = lcs[i + 1]
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = max(nxt[j], row[j + 1])
    script: list[tuple[str, object]] = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            script.append(("=", a[i]))
            i += 1
            j += 1
        elif lcs[i + 1][j] >= lcs[i][j + 1]:
            script.append(("<", a[i]))
            i += 1
        else:
            script.append((">", b[j]))
            j += 1
    for k in range(i, n):
        script.append(("<", a[k]))
    for k in range(j, m):
        script.append((">", b[k]))
    return script


# ---------------------------------------------------------------------------
# Redundancy elimination (Section 3.2) as a row transform: Figure 4 quintuple
# rows to the Figure 6 tables and back. Left src/ (``core/redundancy.py``)
# with no caller there; the recorder builds the Figure 6 split as columns.
# ---------------------------------------------------------------------------


def eliminate_redundancy(rows: Sequence[QuintupleRow], callsite: str) -> RecordTable:
    """Figure 4 rows → Figure 6 tables (matched / with_next / unmatched)."""
    matched: list[ReceiveEvent] = []
    with_next: list[int] = []
    unmatched: list[tuple[int, int]] = []
    for row in rows:
        if row.flag:
            if row.count != 1:
                raise DecodingError("matched rows must have count == 1")
            if row.rank is None or row.clock is None:
                raise DecodingError("matched rows need rank and clock")
            if row.with_next:
                with_next.append(len(matched))
            matched.append(ReceiveEvent(row.rank, row.clock))
        else:
            index = len(matched)
            if unmatched and unmatched[-1][0] == index:
                unmatched[-1] = (index, unmatched[-1][1] + row.count)
            else:
                unmatched.append((index, row.count))
    return RecordTable(callsite, tuple(matched), tuple(with_next), tuple(unmatched))


def restore_redundancy(table: RecordTable) -> list[QuintupleRow]:
    """Figure 6 tables → Figure 4 rows (the exact inverse)."""
    return table.raw_rows()
