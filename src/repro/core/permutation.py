"""Permutation encoding — Section 3.3 / Figure 7 of the paper.

CDC defines a **reference order** over a chunk's matched receive events by
sorting on ``(piggybacked clock, sender rank)`` (Definition 6) and records
only how the actually-observed order deviates from it, as a table of
``(index, delay)`` rows — one row per *moved* event. If the observed order
follows the reference order exactly, the table is empty and the matched-test
record costs nothing.

Codec semantics (see DESIGN.md §5.1): with the observed order expressed as a
permutation ``B`` of reference indices ``0..N-1``,

* the stable events are a longest increasing subsequence of ``B`` —
  maximizing stability minimizes rows and yields the minimal insert/delete
  edit distance ``D = 2 * len(table)`` of the paper's EDA;
* each moved event ``x`` is stored as ``(index=x, delay=obs_pos(x) - x)``,
  rows ascending by ``index`` (so the index column is monotone, feeding the
  LP encoder);
* decoding pins every moved event at its absolute observed position
  ``index + delay`` and fills the remaining slots with stable events in
  reference order — lossless by construction.

The paper's Figure 7 derives delays from between-marker counts in the edit
script, which can differ by small constants from ours (documented in
DESIGN.md); the move *set*, row count, and compressibility are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.edit_distance import stable_and_moved, validate_permutation
from repro.errors import DecodingError


@dataclass(frozen=True)
class PermutationDiff:
    """The permutation-difference table of Figure 7.

    ``indices[k]`` is the reference index of the k-th moved event and
    ``delays[k]`` its displacement; ``size`` is the chunk's event count,
    needed to rebuild the identity when decoding.
    """

    size: int
    indices: tuple[int, ...]
    delays: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.delays):
            raise ValueError("indices and delays must have equal length")

    @property
    def num_moved(self) -> int:
        """Number of permuted events ``Np`` (numerator of Figure 14's metric)."""
        return len(self.indices)

    def permutation_percentage(self) -> float:
        """``Np / N`` — the similarity metric of Figure 14 (0.0 when empty)."""
        if self.size == 0:
            return 0.0
        return self.num_moved / self.size

    def is_identity(self) -> bool:
        """True iff the observed order equals the reference order."""
        return not self.indices


def encode_permutation(
    observed: Sequence[int], validated: bool = False
) -> PermutationDiff:
    """Encode an observed order (as reference indices) into a diff table.

    Parameters
    ----------
    observed:
        Permutation of ``0..N-1``; ``observed[p]`` is the reference index of
        the event delivered at observed position ``p``.
    validated:
        Skip the permutation check; only for callers whose construction
        guarantees a valid permutation (e.g. inverting an argsort).
    """
    if not validated:
        validate_permutation(observed)
    _, moved = stable_and_moved(observed, validated=True)
    n = len(observed)
    if not moved:
        return PermutationDiff(n, (), ())
    if n >= 512:
        # vectorized inverse permutation: pos[observed[p]] = p
        arr = np.asarray(observed, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        pos[arr] = np.arange(n, dtype=np.int64)
        moved_arr = np.asarray(moved, dtype=np.int64)
        delays = tuple((pos[moved_arr] - moved_arr).tolist())
        return PermutationDiff(n, tuple(moved), delays)
    pos = {x: p for p, x in enumerate(observed)}
    indices = tuple(moved)
    delays = tuple(pos[x] - x for x in moved)
    return PermutationDiff(n, indices, delays)


def decode_permutation(diff: PermutationDiff) -> list[int]:
    """Rebuild the observed order from a diff table (inverse of encode)."""
    n = diff.size
    if not diff.indices:
        return list(range(n))
    if len(diff.indices) > n:
        raise DecodingError("more moved events than chunk events")
    out: list[int | None] = [None] * n
    moved_set = set()
    for x, d in zip(diff.indices, diff.delays):
        p = x + d
        if not 0 <= x < n:
            raise DecodingError(f"moved index {x} outside chunk of size {n}")
        if not 0 <= p < n:
            raise DecodingError(f"moved index {x} lands at invalid position {p}")
        if out[p] is not None:
            raise DecodingError(f"two moved events target position {p}")
        if x in moved_set:
            raise DecodingError(f"duplicate moved index {x}")
        out[p] = x
        moved_set.add(x)
    stable = (x for x in range(n) if x not in moved_set)
    for p in range(n):
        if out[p] is None:
            try:
                out[p] = next(stable)
            except StopIteration:  # pragma: no cover - guarded by checks above
                raise DecodingError("ran out of stable events while decoding")
    remaining = sum(1 for _ in stable)
    if remaining:
        raise DecodingError(f"{remaining} stable events left unplaced")
    return out  # type: ignore[return-value]


def apply_permutation(diff: PermutationDiff, reference: Sequence) -> list:
    """Permute concrete ``reference``-ordered items into the observed order.

    This is what replay does once it has rebuilt the reference order from
    the received clocks: ``reference[i]`` moves to the observed position the
    diff dictates.
    """
    if len(reference) != diff.size:
        raise DecodingError(
            f"reference has {len(reference)} events, diff expects {diff.size}"
        )
    order = decode_permutation(diff)
    return [reference[i] for i in order]


def observed_as_reference_indices(
    observed_keys: Sequence, reference_keys: Sequence
) -> list[int]:
    """Express an observed key sequence as indices into the reference order.

    Keys must be unique and the two sequences must contain the same multiset
    (in CDC: ``(clock, sender rank)`` pairs of a chunk's matched events).
    """
    index_of = {k: i for i, k in enumerate(reference_keys)}
    if len(index_of) != len(reference_keys):
        raise DecodingError("reference keys are not unique")
    try:
        return [index_of[k] for k in observed_keys]
    except KeyError as exc:  # pragma: no cover - defensive
        raise DecodingError(f"observed key {exc.args[0]!r} not in reference") from exc
