"""Lossless linear predictive (LP) encoding — Section 3.4 of the paper.

The index columns of CDC's tables grow monotonically, which plain gzip does
not exploit well. LP encoding predicts each value from its predecessors and
stores only the prediction error, which is near zero for regular sequences:

    x_hat_n = sum_{i=1..p} a_i * x_{n-i}        (Eq. 1, with x_{n<=0} = 0)
    e_n     = x_n - x_hat_n                     (Eq. 2)

The paper fixes ``p = 2, (a1, a2) = (2, -1)`` — i.e. it assumes ``x_n`` lies
on the line through ``x_{n-1}`` and ``x_{n-2}``:

    e_n = x_n - 2*x_{n-1} + x_{n-2}             (Eq. 3)

The text's worked example is reproduced in the tests:
``[1, 2, 4, 6, 8, 12, 17] -> [1, 0, 1, 0, 0, 2, 1]``.

This module provides the paper's order-2 predictor, a general integer
predictor with arbitrary coefficients, and exact decoders for both.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

#: The paper's predictor coefficients (p=2).
PAPER_COEFFS: tuple[int, ...] = (2, -1)


def lp_encode(values: Sequence[int], coeffs: Sequence[int] = PAPER_COEFFS) -> list[int]:
    """Encode ``values`` into prediction errors (lossless).

    ``coeffs[i-1]`` is the ``a_i`` of Eq. 1. Out-of-range history terms are
    taken as 0, so ``e_1 == x_1`` and the stream is self-starting.
    """
    errors: list[int] = []
    history = list(values)
    p = len(coeffs)
    for n, x in enumerate(history):
        prediction = 0
        for i in range(1, p + 1):
            k = n - i
            if k >= 0:
                prediction += coeffs[i - 1] * history[k]
        errors.append(x - prediction)
    return errors


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


def lp_decode_exact(errors: Iterable[int]) -> Iterator[int]:
    """Order-2 paper-predictor inverse on Python ints, exact at any size.

    The same telescoping as :func:`lp_decode_array` — ``x`` is the running
    sum of the running sum of ``e`` — without a fixed width to overflow,
    so it needs no range check in front of it. The archive read path
    decodes every LP column this way (DESIGN.md §6.5).
    """
    return accumulate(accumulate(errors))


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


def prediction_quality(values: Sequence[int], coeffs: Sequence[int] = PAPER_COEFFS) -> float:
    """Fraction of exactly-predicted values (``e_n == 0``), excluding warmup.

    A diagnostic used by the hidden-determinism analysis (Section 6.3): for
    regular (deterministic) communication the index sequences are arithmetic
    and this approaches 1.0.
    """
    errors = lp_encode(values, coeffs)
    if len(errors) <= len(coeffs):
        return 0.0
    body = errors[len(coeffs):]
    return sum(1 for e in body if e == 0) / len(body)
