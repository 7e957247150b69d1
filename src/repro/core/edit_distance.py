"""Edit-distance machinery for permutation encoding (Section 4.1).

CDC compares an *observed* receive order ``B`` against a *reference* order
``P``. Because ``B`` is a permutation of ``P`` and ``P`` can be relabeled to
``0..N-1``, the generic ``O(N^2)`` edit-distance matrix of Figure 10
degenerates: the "backslash" match cells are simply ``j = b_i``, and the
minimal insert/delete edit script keeps exactly a longest increasing
subsequence (LIS) of ``B`` and moves everything else. Hence:

    D = 2 * (N - len(LIS(B)))

The paper reaches ``O(N + D)`` by chasing Manhattan-shortest paths between
consecutive backslashes; we use patience sorting (``O(N log N)`` worst case,
and ``O(N)``-ish when ``B`` is nearly sorted because the rightmost-pile
binary search degenerates); the textbook Myers diff the tests cross-validate
the distance with on arbitrary inputs lives in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.errors import EncodingError

#: from this length ``stable_and_moved`` derives the moved set with one
#: numpy scatter instead of a Python set + sort.
_VECTOR_MIN_N = 512


def longest_increasing_subsequence(seq: Sequence[int]) -> list[int]:
    """Indices (into ``seq``) of one longest strictly-increasing subsequence.

    Patience sorting with predecessor links. Deterministic: among equal
    length solutions it returns the one patience sorting canonically yields
    (smallest tail values) — the chosen LIS is part of the stored archive
    format.
    """
    if len(seq) == 0:
        return []
    if isinstance(seq, np.ndarray):
        seq = seq.tolist()  # plain ints iterate faster than np.int64 scalars
    return _lis_scalar(seq)


def _lis_scalar(seq: Sequence[int]) -> list[int]:
    """Canonical patience sorting over a non-empty sequence of ints."""
    n = len(seq)
    tails: list[int] = []  # tails[k] = index of smallest tail of an IS of length k+1
    tail_values: list[int] = []
    prev: list[int] = [-1] * n
    for i, value in enumerate(seq):
        # strictly increasing: replace the first tail >= value
        k = bisect_right(tail_values, value - 1)
        if k == len(tails):
            tails.append(i)
            tail_values.append(value)
        else:
            tails[k] = i
            tail_values[k] = value
        prev[i] = tails[k - 1] if k > 0 else -1
    # reconstruct
    out: list[int] = []
    i = tails[-1]
    while i != -1:
        out.append(i)
        i = prev[i]
    out.reverse()
    return out


def lis_length(seq: Sequence[int]) -> int:
    """Length of the longest strictly-increasing subsequence of ``seq``."""
    tail_values: list[int] = []
    for value in seq:
        k = bisect_right(tail_values, value - 1)
        if k == len(tail_values):
            tail_values.append(value)
        else:
            tail_values[k] = value
    return len(tail_values)


def validate_permutation(b: Sequence[int]) -> None:
    """Raise :class:`EncodingError` unless ``b`` is a permutation of 0..N-1."""
    n = len(b)
    seen = bytearray(n)
    for x in b:
        if not isinstance(x, int) or x < 0 or x >= n or seen[x]:
            raise EncodingError(f"not a permutation of 0..{n - 1}: {list(b)!r}")
        seen[x] = 1


def stable_and_moved(
    b: Sequence[int], validated: bool = False
) -> tuple[list[int], list[int]]:
    """Split the permutation ``b`` into (stable values, moved values).

    Stable values are a canonical LIS of ``b`` — the receives that already
    follow the reference order. Moved values are everything else, returned
    sorted ascending (i.e. by reference index), the order in which the
    permutation-difference table records them (Figure 7).

    ``validated=True`` skips the permutation check for callers that
    construct ``b`` by inverting an argsort (always a valid permutation).
    """
    if not validated:
        validate_permutation(b)
    keep = longest_increasing_subsequence(b)
    n = len(b)
    if n >= _VECTOR_MIN_N:
        # b is a permutation of 0..n-1, so the moved set is the ascending
        # complement of the stable values — one boolean scatter, no sort
        arr = np.asarray(b, dtype=np.int64)
        stable_arr = arr[keep]
        is_stable = np.zeros(n, dtype=bool)
        is_stable[stable_arr] = True
        moved = np.flatnonzero(~is_stable).tolist()
        return stable_arr.tolist(), moved
    stable = [b[i] for i in keep]
    stable_set = set(stable)
    moved = sorted(x for x in b if x not in stable_set)
    return stable, moved
