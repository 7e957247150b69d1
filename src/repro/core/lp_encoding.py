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

This module provides the predictor (the paper's coefficients or any other
integer ones) and the exact inverse of the paper's, which the archive
reader uses.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence


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


def lp_decode_exact(errors: Iterable[int]) -> Iterator[int]:
    """Order-2 paper-predictor inverse on Python ints, exact at any size.

    The recurrence ``x_n = e_n + 2*x_{n-1} - x_{n-2}`` telescopes — ``x`` is
    the running sum of the running sum of ``e`` — and Python ints have no
    fixed width to overflow, so it needs no range check in front of it. The archive read path
    decodes every LP column this way (DESIGN.md §6.5).
    """
    return accumulate(accumulate(errors))
