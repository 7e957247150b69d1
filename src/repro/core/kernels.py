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
* **Byte-identical output.** For every input the scalar reference accepts,
  the batch encoder produces the exact same byte stream and the batch
  decoder consumes the exact same bytes. This is asserted by property tests
  (``tests/core/test_kernels.py``) and is what lets the serialization layer
  switch paths freely.
* **Graceful fallback.** Values outside the int64/uint64 range (the formats
  must not silently corrupt arbitrary-precision Python ints) and varints
  longer than 9 bytes fall back to the scalar implementations in
  :mod:`repro.core.varint`. The fallback is the correctness reference, not
  an error path.

The kernels are pure functions over ``bytes`` / ``numpy.ndarray``; all
policy (length prefixes, column layout) stays in the callers, who hand the
stream kernels per-value masks rather than a layout.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import RecordFormatError
from repro.obs import get_registry

__all__ = [
    "IntArray",
    "zigzag_encode_array",
    "zigzag_decode_array",
    "uvarint_encode_batch",
    "svarint_encode_batch",
    "uvarint_decode_batch",
    "svarint_decode_batch",
    "uvarint_sizes",
    "lp_encode_segments",
    "stream_to_unsigned",
    "packbits", "unpackbits",
    "to_bits", "from_bits",
]

#: Accepted column types: any int sequence or a numpy integer array.
IntArray = Union[Sequence[int], np.ndarray]

_U7 = np.uint64(7)
_U1 = np.uint64(1)
_PAYLOAD_MASK = np.uint64(0x7F)
_CONT_BIT = np.uint8(0x80)

#: Longest varint the numpy path handles: 9 bytes = 63 payload bits. The
#: 10-byte case (top uint64 bit set) and the scalar decoder's tolerance for
#: over-long encodings (up to shift 128) go through the scalar fallback.
_MAX_FAST_LEN = 9

#: Thresholds for vectorized byte-length computation: value >= 2**(7k)
#: needs at least k+1 bytes.
_LEN_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)

#: Bit offset of each of a varint's (at most ten) 7-bit groups, and the
#: group numbers themselves, for the one-row-per-value byte matrices.
_GROUP_SHIFTS = np.arange(10, dtype=np.uint64) * _U7
_GROUPS = np.arange(10, dtype=np.intp)

#: Magnitudes below this survive Eq. 3 (|e| <= 4 max|x|) and the zig-zag
#: doubling inside int64 with the sign bit still clear.
_STREAM_SAFE_BOUND = 1 << 60


# ---------------------------------------------------------------------------
# zig-zag (vectorized int64 <-> uint64)
# ---------------------------------------------------------------------------


def zigzag_encode_array(values: np.ndarray) -> np.ndarray:
    """Vectorized zig-zag map: int64 array -> uint64 array.

    Matches :func:`repro.core.varint.zigzag_encode` for every int64.
    """
    x = np.ascontiguousarray(values, dtype=np.int64)
    u = x.view(np.uint64)
    sign = (x >> np.int64(63)).view(np.uint64)  # 0 or 0xFFF...F
    return ((u << _U1) ^ sign).astype(np.uint64, copy=False)


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


def _fallback(direction: str) -> None:
    """Count a scalar-fallback event (rare path: out-of-range values)."""
    registry = get_registry()
    if registry.enabled:
        registry.counter(f"kernels.{direction}_fallbacks").add()


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


def uvarint_encode_batch(values: IntArray) -> bytes | None:
    """Encode a column of unsigned ints as concatenated LEB128 varints.

    Returns ``None`` when any value is outside uint64 (caller must use the
    scalar fallback). Negative values raise, matching the scalar encoder.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "i":
            if values.size and bool((values < 0).any()):
                first_bad = int(values[values < 0][0])
                raise ValueError(f"uvarint requires value >= 0, got {first_bad}")
            v = values.astype(np.uint64)
        elif values.dtype.kind == "u":
            v = values.astype(np.uint64, copy=False)
        else:
            return None
        return _encode_u64(v)
    try:
        v = np.asarray(values, dtype=np.uint64)
    except OverflowError:
        # either a negative (must raise like the scalar encoder) or a value
        # beyond uint64 (arbitrary precision: scalar fallback)
        for x in values:
            if x < 0:
                raise ValueError(f"uvarint requires value >= 0, got {x}")
        _fallback("encode")
        return None
    except (ValueError, TypeError):
        _fallback("encode")
        return None
    return _encode_u64(v)


def svarint_encode_batch(values: IntArray) -> bytes | None:
    """Encode a column of signed ints as zig-zag LEB128 varints.

    Returns ``None`` when any value is outside int64.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "u":
            if values.size and bool((values >= np.uint64(1) << np.uint64(63)).any()):
                _fallback("encode")
                return None
            x = values.astype(np.int64)
        elif values.dtype.kind == "i":
            x = values.astype(np.int64, copy=False)
        else:
            _fallback("encode")
            return None
        return _encode_u64(zigzag_encode_array(x))
    try:
        x = np.asarray(values, dtype=np.int64)
    except (OverflowError, ValueError, TypeError):
        _fallback("encode")
        return None
    return _encode_u64(zigzag_encode_array(x))


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


def stream_to_unsigned(
    values: Sequence[int], signed: np.ndarray, lp: np.ndarray
) -> np.ndarray | None:
    """One varint stream's values as the uint64 array ``_encode_u64`` packs.

    ``signed`` / ``lp`` mark, per value, the zig-zag and linear-predicted
    positions. Returns ``None`` when a value is too large for the int64
    arithmetic to be exact (the caller runs the same steps on Python ints);
    a negative value at an unsigned position raises like the scalar encoder.
    """
    try:
        x = np.array(values, dtype=np.int64)
    except OverflowError:
        _fallback("encode")
        return None
    if x.size == 0:
        return x.view(np.uint64)
    if int(x.max()) >= _STREAM_SAFE_BOUND or int(x.min()) <= -_STREAM_SAFE_BOUND:
        _fallback("encode")
        return None
    lp_encode_segments(x, lp)
    z = np.where(signed, (x << 1) ^ (x >> 63), x)
    if int(z.min()) < 0:
        raise ValueError(f"uvarint requires value >= 0, got {int(x[z < 0][0])}")
    return z.view(np.uint64)


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


def _find_terminators(arr: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Absolute positions of the first ``count`` varint-final bytes.

    Scans an exponentially growing window so decoding one short array out of
    a long buffer stays O(bytes consumed), not O(buffer).
    """
    total = arr.shape[0]
    window = min(total, offset + max(64, 2 * count + 16))
    while True:
        term = np.flatnonzero(arr[offset:window] < _CONT_BIT)
        if term.shape[0] >= count or window >= total:
            break
        window = min(total, offset + 2 * (window - offset))
    if term.shape[0] < count:
        raise RecordFormatError(f"truncated varint at offset {offset}")
    return term[:count] + offset


def uvarint_decode_batch(
    buf: bytes, offset: int, count: int | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode ``count`` consecutive LEB128 varints starting at ``offset``;
    with ``count=None``, every complete varint up to the end of ``buf``.

    Returns ``(uint64 values, position of each value's last byte)``, or
    ``None`` when a varint is longer than the 9-byte fast-path limit (caller
    decodes scalar — this covers 10-byte uint64 values and the over-long
    encodings the scalar decoder tolerates). With a ``count``, raises
    :class:`RecordFormatError` on truncation, same as the scalar decoder.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    if count is None:
        ends = (arr[offset:] < _CONT_BIT).nonzero()[0]
        ends += offset
    else:
        ends = _find_terminators(arr, offset, count)
    count = ends.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.uint64), ends
    starts = np.empty(count, dtype=np.intp)
    starts[0] = offset
    np.add(ends[:-1], 1, out=starts[1:])
    extra = ends - starts
    width = int(extra.max()) + 1
    if width > _MAX_FAST_LEN:
        _fallback("decode")
        return None
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


def svarint_decode_batch(
    buf: bytes, offset: int, count: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode ``count`` zig-zag varints; ``(int64 values, last-byte positions)``.

    Same fallback contract as :func:`uvarint_decode_batch`.
    """
    decoded = uvarint_decode_batch(buf, offset, count)
    if decoded is None:
        return None
    raw, ends = decoded
    return zigzag_decode_array(raw), ends
