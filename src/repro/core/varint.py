"""Variable-length integer serialization for CDC chunk payloads.

CDC's tables are dominated by values near zero (that is the whole point of
the permutation + linear-predictive stages), so LEB128 varints with zig-zag
mapping for signed values give a compact pre-gzip byte stream: values in
[-64, 63] cost a single byte.

The array functions route whole columns, and the stream functions a whole
payload body, through the batched numpy kernels in
:mod:`repro.core.kernels`; the scalar implementations here remain the
correctness reference and the fallback for values outside int64/uint64.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core import kernels
from repro.core.lp_encoding import lp_encode
from repro.errors import RecordFormatError

_CONT = 0x80
_PAYLOAD = 0x7F

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one with small absolute values first.

    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
    """
    return (value << 1) ^ (value >> 63) if _INT64_MIN <= value <= _INT64_MAX else _zigzag_big(value)


def _zigzag_big(value: int) -> int:
    # Arbitrary-precision fallback (Python ints are unbounded; clocks stay
    # well under 2**63 in practice but the format must not silently corrupt).
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError(f"uvarint requires value >= 0, got {value}")
    while True:
        byte = value & _PAYLOAD
        value >>= 7
        if value:
            out.append(byte | _CONT)
        else:
            out.append(byte)
            return


def decode_uvarint(buf: bytes, offset: int) -> tuple[int, int]:
    """Decode an unsigned varint at ``offset``; return (value, next offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise RecordFormatError(f"truncated varint at offset {offset}")
        byte = buf[pos]
        pos += 1
        result |= (byte & _PAYLOAD) << shift
        if not byte & _CONT:
            return result, pos
        shift += 7
        if shift > 128:
            raise RecordFormatError(f"varint too long at offset {offset}")


def encode_svarint(value: int, out: bytearray) -> None:
    """Append a signed (zig-zag) varint to ``out``."""
    encode_uvarint(zigzag_encode(value), out)


def decode_svarint(buf: bytes, offset: int) -> tuple[int, int]:
    """Decode a signed (zig-zag) varint; return (value, next offset)."""
    raw, pos = decode_uvarint(buf, offset)
    return zigzag_decode(raw), pos


# ---------------------------------------------------------------------------
# array codecs (batched kernels + scalar reference/fallback)
# ---------------------------------------------------------------------------


def _encode_array(values: Iterable[int], signed: bool) -> bytes:
    vals = values if isinstance(values, (list, tuple, np.ndarray)) else list(values)
    out = bytearray()
    encode_uvarint(len(vals), out)
    body = (kernels.svarint_encode_batch if signed else kernels.uvarint_encode_batch)(vals)
    if body is None:  # beyond the kernels' range: the scalar reference
        body = _encode_uvarint_body_scalar(map(zigzag_encode, map(int, vals)) if signed else vals)
    return bytes(out) + body


def encode_uvarint_array(values: Iterable[int]) -> bytes:
    """Length-prefixed array of unsigned varints."""
    return _encode_array(values, signed=False)


def _decode_array(buf: bytes, offset: int, signed: bool) -> tuple[list[int], int]:
    n, pos = decode_uvarint(buf, offset)
    batch = kernels.svarint_decode_batch if signed else kernels.uvarint_decode_batch
    decoded = batch(buf, pos, n)
    if decoded is None:
        return _decode_varints_scalar(buf, pos, n, signed)
    values, ends = decoded
    return values.tolist(), int(ends[-1]) + 1 if n else pos


def decode_uvarint_array(buf: bytes, offset: int) -> tuple[list[int], int]:
    """Inverse of :func:`encode_uvarint_array`; returns (values, next offset)."""
    return _decode_array(buf, offset, signed=False)


def encode_svarint_array(values: Iterable[int]) -> bytes:
    """Length-prefixed array of signed varints."""
    return _encode_array(values, signed=True)


def decode_svarint_array(buf: bytes, offset: int) -> tuple[list[int], int]:
    """Inverse of :func:`encode_svarint_array`."""
    return _decode_array(buf, offset, signed=True)


# ---------------------------------------------------------------------------
# whole streams: a CDC payload body is one run of varints (DESIGN.md §6.5)
# ---------------------------------------------------------------------------


#: Per-value flags of a stream: zig-zag mapped / Eq. 3 residual. The bits
#: from ``STREAM_FLAG_BITS`` up belong to the caller (the CDC layout keeps
#: a table number there).
SIGNED, LP, STREAM_FLAG_BITS = 1, 2, 2
#: A kernel pass costs what some hundred scalar steps do whatever its length:
#: a stream shorter than this many values (or bytes) takes the scalar producer,
#: whose output is the same to the byte.
KERNEL_MIN_VALUES = 128


def stream_to_unsigned(
    values: list[int], segment_flags: np.ndarray, segment_lengths: Sequence[int]
) -> np.ndarray | list[int]:
    """Apply LP and zig-zag to a stream laid out as consecutive segments of
    uniform flags; returns the unsigned values to pack.

    An LP segment must follow a non-LP one (its length prefix). The values
    come back as one uint64 array — or, when the stream is short or any value
    is too large for int64 arithmetic to be exact, as a list from the same
    steps on Python ints.
    """
    unsigned = None
    if len(values) >= KERNEL_MIN_VALUES:
        flags = np.repeat(segment_flags, segment_lengths)
        unsigned = kernels.stream_to_unsigned(
            values, (flags & SIGNED).view(bool), (flags & LP).astype(bool)
        )
    if unsigned is None:
        unsigned, start = [], 0
        for seg, n in zip(segment_flags.tolist(), segment_lengths):
            if not n:
                continue
            body = values[start : start + n]
            start += n
            if seg & LP:
                body = lp_encode(body)
            unsigned += map(zigzag_encode, body) if seg & SIGNED else body
    return unsigned


def encode_uvarint_stream(values: np.ndarray | Sequence[int]) -> bytes:
    """Concatenated unsigned varints, no length prefix: one kernel call for
    a uint64 array, the scalar loop for a list of Python ints."""
    if isinstance(values, np.ndarray):
        return kernels._encode_u64(values)
    return _encode_uvarint_body_scalar(values)


def uvarint_stream_sizes(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """Encoded byte length of each value of a stream (either producer)."""
    if isinstance(values, np.ndarray):
        return kernels.uvarint_sizes(values)
    return np.array([uvarint_size(v) for v in values], dtype=np.intp)


def decode_varint_stream(buf: bytes, offset: int) -> tuple[list[int], list[int], Sequence[int]]:
    """Every complete varint of ``buf[offset:]``, read unsigned and read
    zig-zag, and the position of each one's last byte.

    A tail that is cut short or over-long is left out rather than raised:
    whoever walks the values raises when it needs one that is not there.
    """
    short = len(buf) - offset < KERNEL_MIN_VALUES
    decoded = None if short else kernels.uvarint_decode_batch(buf, offset)
    if decoded is not None:
        raw, ends = decoded
        return raw.tolist(), kernels.zigzag_decode_array(raw).tolist(), ends
    unsigned: list[int] = []
    ends: list[int] = []
    pos = offset
    try:
        while pos < len(buf):
            value, pos = decode_uvarint(buf, pos)
            unsigned.append(value)
            ends.append(pos - 1)
    except RecordFormatError:
        pass
    return unsigned, [zigzag_decode(v) for v in unsigned], ends


# -- scalar reference implementations (fallback + kernel test oracle) -------


def _encode_uvarint_body_scalar(vals: Sequence[int]) -> bytes:
    out = bytearray()
    for v in vals:
        v = int(v)
        if v < 0:
            raise ValueError(f"uvarint requires value >= 0, got {v}")
        while v > _PAYLOAD:  # encode_uvarint, without a call per value
            out.append(v & _PAYLOAD | _CONT)
            v >>= 7
        out.append(v)
    return bytes(out)


def _decode_varints_scalar(
    buf: bytes, pos: int, n: int, signed: bool
) -> tuple[list[int], int]:
    decode = decode_svarint if signed else decode_uvarint
    values = []
    for _ in range(n):
        v, pos = decode(buf, pos)
        values.append(v)
    return values, pos


# ---------------------------------------------------------------------------
# size accounting
# ---------------------------------------------------------------------------


def uvarint_size(value: int) -> int:
    """Byte length :func:`encode_uvarint` would produce for ``value``."""
    if value < 0:
        raise ValueError("uvarint requires value >= 0")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size
