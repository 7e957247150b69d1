"""Variable-length integer serialization for CDC chunk payloads.

CDC's tables are dominated by values near zero (that is the whole point of
the permutation + linear-predictive stages), so LEB128 varints with zig-zag
mapping for signed values give a compact pre-gzip byte stream: values in
[-64, 63] cost a single byte.

A stored value is below ``kernels.VALUE_LIMIT`` (2**60) in magnitude and a
varint at most ``kernels.MAX_VARINT_LEN`` (9) bytes — the format's one value
budget, DESIGN.md §5.12. A run of values has two producers with the same
bytes, picked from its length: the scalar steps here under
:data:`KERNEL_MIN_VALUES`, the batched numpy kernels of
:mod:`repro.core.kernels` from there on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core import kernels
from repro.core.lp_encoding import lp_encode
from repro.errors import RecordFormatError

_CONT = 0x80
_PAYLOAD = 0x7F
#: the shift of a varint's last allowed 7-bit group
_MAX_SHIFT = 7 * (kernels.MAX_VARINT_LEN - 1)


def zigzag_encode(value: int) -> int:
    """Map a signed 64-bit int to an unsigned one, small magnitudes first.

    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
    """
    return (value << 1) ^ (value >> 63)


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
    """Decode an unsigned varint at ``offset``; return (value, next offset).
    One longer than ``kernels.MAX_VARINT_LEN`` bytes is refused."""
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
        if shift > _MAX_SHIFT:
            raise RecordFormatError(f"varint too long at offset {offset}")


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

    An LP segment must follow a non-LP one (its length prefix). A long stream
    comes back as one uint64 array, a short one as a list from the same steps
    on Python ints; a value at or past ``kernels.VALUE_LIMIT`` is an
    :class:`~repro.errors.EncodingError` from either.
    """
    if len(values) >= KERNEL_MIN_VALUES:
        flags = np.repeat(segment_flags, segment_lengths)
        return kernels.stream_to_unsigned(
            values, (flags & SIGNED).view(bool), (flags & LP).astype(bool)
        )
    if values and not -kernels.VALUE_LIMIT < min(values) <= max(values) < kernels.VALUE_LIMIT:
        raise kernels.value_past_limit(values)
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
    if len(buf) - offset >= KERNEL_MIN_VALUES:
        raw, ends = kernels.uvarint_decode_batch(buf, offset)
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


def _encode_array(values: Iterable[int], signed: bool) -> bytes:
    """``len, values...``: a stream of two segments."""
    vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
    flags = np.array([0, signed * SIGNED], np.uint8)
    return encode_uvarint_stream(stream_to_unsigned([len(vals), *vals], flags, (1, len(vals))))


def encode_uvarint_array(values: Iterable[int]) -> bytes:
    """Length-prefixed array of unsigned varints."""
    return _encode_array(values, signed=False)


def encode_svarint_array(values: Iterable[int]) -> bytes:
    """Length-prefixed array of signed varints."""
    return _encode_array(values, signed=True)


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
