"""Epoch lines — Section 3.5 of the paper.

Record data is flushed in bounded chunks. During replay, a completed receive
``(rank, clock)`` may physically arrive while an *earlier* chunk is still
being replayed; delivering it from the wrong chunk corrupts the reference
order. The epoch line fixes this: each chunk stores, per sender rank, the
maximum piggybacked clock of that sender's receives inside the chunk. A
receive belongs to the chunk iff its clock does not "run off the epoch
line"; otherwise it must be held for a subsequent chunk.

Because a sender's attached clocks strictly increase and channels are FIFO,
the membership test is exact: the set of ``(rank, clock)`` pairs at or below
the line is precisely the chunk's matched set, provided receives are
examined in arrival order per sender.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.events import ReceiveEvent


@dataclass(frozen=True)
class EpochLine:
    """Per-sender clock ceiling of one chunk (the Figure 8 epoch-line table)."""

    max_clock_by_rank: Mapping[int, int]

    @classmethod
    def from_events(cls, events: Iterable[ReceiveEvent]) -> "EpochLine":
        """Compute the epoch line of a chunk's matched receives."""
        line: dict[int, int] = {}
        for ev in events:
            current = line.get(ev.rank)
            if current is None or ev.clock > current:
                line[ev.rank] = ev.clock
        return cls(dict(line))

    def contains(self, event: ReceiveEvent) -> bool:
        """Does ``event`` belong to this chunk (not run off the line)?"""
        ceiling = self.max_clock_by_rank.get(event.rank)
        return ceiling is not None and event.clock <= ceiling

    @property
    def num_ranks(self) -> int:
        return len(self.max_clock_by_rank)

    def value_count(self) -> int:
        """Stored values: one (rank, clock) pair per sender (6 in Figure 8)."""
        return 2 * self.num_ranks

    def as_sorted_pairs(self) -> list[tuple[int, int]]:
        """Deterministic (rank, clock) serialization order."""
        return sorted(self.max_clock_by_rank.items())

