"""Per-callsite record tables — Figure 4 and the Figure 6 decomposition.

A :class:`RecordTable` is one sealed chunk of a callsite's MF outcome stream
as objects — what ``ColumnarTable.to_record_table`` and ``reconstruct_table``
hand out; recording builds columns (:mod:`repro.core.columnar`). A chunk
holds:

* ``matched`` — the matched receives in observed (delivery) order;
* ``with_next_indices`` — observed indices whose receive was returned in the
  same MF call as the following one (the Figure 6 ``with_next`` table);
* ``unmatched_runs`` — ``(index, count)`` pairs: ``count`` consecutive
  unmatched tests occurred immediately before matched event ``index`` (the
  Figure 6 unmatched-test table; ``index == len(matched)`` means trailing
  unmatched tests after the last receive).

This *is* the paper's redundancy elimination (Section 3.2): absent features
cost nothing — no ``Testsome``/``Waitall`` ⇒ empty with_next table, no
``Test`` polling ⇒ empty unmatched table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.events import MFOutcome, QuintupleRow, ReceiveEvent, outcomes_to_rows


@dataclass(frozen=True)
class RecordTable:
    """One chunk of recorded MF behaviour for a single callsite."""

    callsite: str
    matched: tuple[ReceiveEvent, ...]
    with_next_indices: tuple[int, ...]
    unmatched_runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.matched)
        for idx in self.with_next_indices:
            if not 0 <= idx < n - 0:
                raise ValueError(f"with_next index {idx} out of range")
        last = -1
        for idx, count in self.unmatched_runs:
            if not 0 <= idx <= n:
                raise ValueError(f"unmatched run index {idx} out of range")
            if idx <= last:
                raise ValueError("unmatched run indices must strictly increase")
            if count <= 0:
                raise ValueError("unmatched run count must be positive")
            last = idx

    @property
    def num_events(self) -> int:
        """Number of matched receive events in the chunk."""
        return len(self.matched)

    def raw_rows(self) -> list[QuintupleRow]:
        """Reconstruct the Figure 4 quintuple rows for this chunk."""
        return list(outcomes_to_rows(self.to_outcomes()))

    def raw_value_count(self) -> int:
        """Stored-value count of the naive format (5 per row; 55 in Fig. 4)."""
        return 5 * len(self.raw_rows())

    def encoded_value_count(self) -> int:
        """Stored-value count after redundancy elimination (Figure 6).

        matched: 2 per event (rank, clock); with_next: 1 per entry;
        unmatched: 2 per run.
        """
        return (
            2 * len(self.matched)
            + len(self.with_next_indices)
            + 2 * len(self.unmatched_runs)
        )

    def to_outcomes(self) -> Iterator[MFOutcome]:
        """Reconstruct an equivalent MF outcome stream (test oracle).

        Unmatched runs are emitted as single-test outcomes; with_next chains
        regroup into multi-match outcomes. Kinds are normalized (TEST /
        TESTSOME) since the kind itself is not recorded — replay keys off
        the callsite, not the MF flavor.
        """
        from repro.core.events import MFKind  # local to avoid cycle at import

        unmatched = dict(self.unmatched_runs)
        with_next = set(self.with_next_indices)
        i = 0
        n = len(self.matched)
        while i < n:
            for _ in range(unmatched.pop(i, 0)):
                yield MFOutcome(self.callsite, MFKind.TEST, ())
            group = [self.matched[i]]
            while i in with_next and i + 1 < n:
                i += 1
                group.append(self.matched[i])
            i += 1
            kind = MFKind.TESTSOME if len(group) > 1 else MFKind.TEST
            yield MFOutcome(self.callsite, kind, tuple(group))
        for _ in range(unmatched.pop(n, 0)):
            yield MFOutcome(self.callsite, MFKind.TEST, ())

