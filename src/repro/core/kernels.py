"""Batched encode/decode kernels for the CDC hot path.

The chunk format is byte-oriented (zig-zag + LEB128 varints over LP-encoded
columns, see :mod:`repro.core.varint` / :mod:`repro.core.lp_encoding`), and
the scalar reference implementations pay Python-interpreter cost on every
*byte*. These kernels process whole columns — or a whole CDC payload body,
which is one run of varints (DESIGN.md §6.5) — as numpy arrays: a varint's
7-bit groups are the columns of a one-row-per-value matrix, so encode and
decode are a fixed handful of array operations whatever the mix of lengths,
and the per-event cost is a few C-loop operations instead of a Python loop
iteration.

Contract
--------
* **Byte-identical output.** For every input the scalar producer accepts,
  the batch encoder produces the exact same byte stream and the batch
  decoder consumes the exact same bytes. This is asserted by property tests
  (``tests/core/test_kernels.py``) and is what lets the serialization layer
  pick a producer from the length of its input.
* **One value budget.** A stored value is below :data:`VALUE_LIMIT` in
  magnitude and a varint at most :data:`MAX_VARINT_LEN` bytes (DESIGN.md
  §5.12): a value past the limit is an :class:`~repro.errors.EncodingError`,
  a longer varint is not a value. There is no second, wider implementation.

The kernels are pure functions over ``bytes`` / ``numpy.ndarray``; all
policy (length prefixes, column layout) stays in the callers, who hand the
stream kernels per-value masks rather than a layout.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import EncodingError
from repro.obs import get_registry

__all__ = [
    "IntArray",
    "MAX_VARINT_LEN",
    "VALUE_LIMIT",
    "zigzag_decode_array",
    "uvarint_decode_batch",
    "uvarint_sizes",
    "lp_encode_segments",
    "stream_to_unsigned",
    "value_past_limit",
    "packbits", "unpackbits",
    "to_bits", "from_bits",
]

#: Accepted column types: any int sequence or a numpy integer array.
IntArray = Union[Sequence[int], np.ndarray]

_U7 = np.uint64(7)
_U1 = np.uint64(1)
_PAYLOAD_MASK = np.uint64(0x7F)
_CONT_BIT = np.uint8(0x80)

#: The format's value budget (DESIGN.md §5.12): every clock, rank, index and
#: count a record stores is below this in magnitude. Under it Eq. 3
#: (|e| <= 4 max|x|) and the zig-zag doubling stay inside int64 with the sign
#: bit clear, so a stored varint has at most 63 payload bits ...
VALUE_LIMIT = 1 << 60
#: ... which is 9 bytes: a longer varint is not a value of the format.
MAX_VARINT_LEN = 9

#: Thresholds for vectorized byte-length computation: value >= 2**(7k)
#: needs at least k+1 bytes.
_LEN_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)

#: Bit offset of each of a varint's (at most ten) 7-bit groups, and the
#: group numbers themselves, for the one-row-per-value byte matrices.
_GROUP_SHIFTS = np.arange(10, dtype=np.uint64) * _U7
_GROUPS = np.arange(10, dtype=np.intp)


# ---------------------------------------------------------------------------
# zig-zag (vectorized uint64 -> int64)
# ---------------------------------------------------------------------------


def zigzag_decode_array(values: np.ndarray) -> np.ndarray:
    """Vectorized zig-zag inverse: uint64 array -> int64 array."""
    z = np.ascontiguousarray(values, dtype=np.uint64)
    half = z >> _U1
    return np.where((z & _U1).astype(bool), ~half, half).view(np.int64)


# ---------------------------------------------------------------------------
# LEB128 batch encode
# ---------------------------------------------------------------------------


def _max_varint_len(v: np.ndarray) -> int:
    """Byte length of the largest value's varint (``v`` non-empty uint64)."""
    return max(1, (int(v.max()).bit_length() + 6) // 7)


def uvarint_sizes(values: np.ndarray) -> np.ndarray:
    """Per-value encoded byte length (vectorized :func:`uvarint_size`)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    sizes = np.ones(v.shape, dtype=np.intp)
    if v.size:
        # only the thresholds the largest value reaches can add a byte
        for threshold in _LEN_THRESHOLDS[: _max_varint_len(v) - 1]:
            sizes += v >= threshold
    return sizes


def _encode_u64(v: np.ndarray) -> bytes:
    """Concatenated LEB128 varints for a uint64 array (no length prefix)."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("kernels.encode_batches").add()
        registry.counter("kernels.encode_values").add(int(v.size))
    if v.size == 0:
        return b""
    width = _max_varint_len(v)
    if width == 1:
        # single-byte fast path: the common case for LP residuals
        return v.astype(np.uint8).tobytes()
    # one row per value, one column per 7-bit group; row-major order of the
    # kept cells is the byte stream
    groups = v[:, None] >> _GROUP_SHIFTS[:width]
    keep = np.ones(groups.shape, dtype=bool)
    np.not_equal(groups[:, 1:], 0, out=keep[:, 1:])
    out = groups.astype(np.uint8)
    out &= np.uint8(0x7F)
    out[:, :-1] |= keep[:, 1:].view(np.uint8) << 7
    return out.ravel().compress(keep.ravel()).tobytes()


def lp_encode_segments(x: np.ndarray, lp: np.ndarray) -> None:
    """Eq. 3 residuals, in place, over every run of ``lp``-marked positions.

    Each run restarts the predictor (``x_{n<=0} = 0``). A run must follow an
    unmarked position — in a CDC stream, its own length prefix — which is
    what lets two masked differences stand in for a per-run loop: the
    masked-out slot in front of a run reads as the zero history.
    """
    first = np.where(lp, x, 0)
    first[1:] -= first[:-1]
    first *= lp
    second = first.copy()
    second[1:] -= first[:-1]
    np.copyto(x, second, where=lp)


def stream_to_unsigned(values: Sequence[int], signed: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """One varint stream's values as the uint64 array ``_encode_u64`` packs.

    ``signed`` / ``lp`` mark, per value, the zig-zag and linear-predicted
    positions. A value at or past :data:`VALUE_LIMIT` is an
    :class:`EncodingError`; a negative value at an unsigned position raises
    like the scalar encoder.
    """
    try:
        x = np.array(values, dtype=np.int64)
    except OverflowError:
        raise value_past_limit(values) from None
    if x.size == 0:
        return x.view(np.uint64)
    if int(x.max()) >= VALUE_LIMIT or int(x.min()) <= -VALUE_LIMIT:
        raise value_past_limit(values)
    lp_encode_segments(x, lp)
    z = np.where(signed, (x << 1) ^ (x >> 63), x)
    if int(z.min()) < 0:
        raise ValueError(f"uvarint requires value >= 0, got {int(x[z < 0][0])}")
    return z.view(np.uint64)


def value_past_limit(values: Sequence[int]) -> EncodingError:
    """The error for the first of ``values`` the format has no room for."""
    worst = next(v for v in values if not -VALUE_LIMIT < v < VALUE_LIMIT)
    return EncodingError(f"value {worst} is at or past the format's limit of 2**60")


# ---------------------------------------------------------------------------
# bit planes: what a CDC frame (DESIGN.md §5.10) or a raw row is not a varint of
# ---------------------------------------------------------------------------

#: shift of each bit of a value, most significant first
_BIT_SHIFTS = np.arange(63, -1, -1, dtype=np.uint64)


def packbits(bits: np.ndarray) -> bytes:
    """A 0/1 uint8 array as bytes, first bit highest, zero-padded to a byte."""
    return np.packbits(bits).tobytes()


def unpackbits(buf: bytes, offset: int, count: int) -> np.ndarray:
    """The ``8 * count`` bits of ``buf[offset : offset + count]``."""
    return np.unpackbits(np.frombuffer(buf, np.uint8, count, offset))


def to_bits(values: IntArray, width: int) -> np.ndarray:
    """The low ``width`` bits of each value, high bit first: one flat plane."""
    v = np.asarray(values, dtype=np.uint64)
    if width <= 1:  # nothing to spread: the plane is empty, or the low bits themselves
        return (v & _U1).astype(np.uint8) if width else np.empty(0, np.uint8)
    return (v[:, None] >> _BIT_SHIFTS[64 - width :] & _U1).astype(np.uint8).ravel()


def from_bits(bits: np.ndarray, rows: int, width: int) -> np.ndarray:
    """Inverse of :func:`to_bits` over ``rows * width`` bits, as int64 values."""
    if width <= 1:
        return np.zeros(rows, np.int64) if not width else bits.astype(np.int64)
    return (bits.reshape(rows, width) @ (_U1 << _BIT_SHIFTS[64 - width :])).view(np.int64)


# ---------------------------------------------------------------------------
# LEB128 batch decode
# ---------------------------------------------------------------------------


def uvarint_decode_batch(buf: bytes, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode every complete LEB128 varint of ``buf[offset:]``, up to the
    first one longer than :data:`MAX_VARINT_LEN` bytes — that is not a value,
    and nothing behind it can be placed.

    Returns ``(uint64 values, position of each value's last byte)``.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    ends = (arr[offset:] < _CONT_BIT).nonzero()[0]
    ends += offset
    count = ends.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.uint64), ends
    starts = np.empty(count, dtype=np.intp)
    starts[0] = offset
    np.add(ends[:-1], 1, out=starts[1:])
    extra = ends - starts
    width = int(extra.max()) + 1
    if width > MAX_VARINT_LEN:
        return uvarint_decode_batch(buf[: starts[(extra >= MAX_VARINT_LEN).argmax()]], offset)
    registry = get_registry()
    if registry.enabled:
        registry.counter("kernels.decode_batches").add()
        registry.counter("kernels.decode_values").add(count)
    values = arr[starts].astype(np.uint64)
    if width > 1:
        values &= _PAYLOAD_MASK
        # the multi-byte values only: one row each, one column per further
        # 7-bit group, cells past a value's own end masked to zero
        multi = extra.nonzero()[0]
        groups = _GROUPS[1:width]
        tail = arr.take(starts[multi, None] + groups, mode="clip")
        tail &= np.uint8(0x7F)
        tail *= groups <= extra[multi, None]
        wide = tail.astype(np.uint64)
        wide <<= _GROUP_SHIFTS[1:width]
        values[multi] |= np.bitwise_or.reduce(wide, axis=1)
    return values, ends
