"""Redundancy elimination (Section 3.2) as an explicit, testable transform.

The structural split already happens in :class:`~repro.core.columnar.
ColumnarTableBuilder`; this module exposes the forward/backward transform
between the Figure 4 quintuple rows and the Figure 6 three-table form, so
the stage can be verified in isolation (and so the worked-example benchmark
can print each intermediate representation).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.events import QuintupleRow, ReceiveEvent
from repro.core.record_table import RecordTable
from repro.errors import DecodingError


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
    """Figure 6 tables → Figure 4 rows (exact inverse; used by decode tests)."""
    return table.raw_rows()
