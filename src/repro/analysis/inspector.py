"""Record-archive inspection: per-chunk and per-callsite statistics.

What a tool developer reaches for when a record looks bigger than expected:
which callsite dominates, how permuted each chunk is, how the stored values
split across the CDC tables. Backs the CLI's ``inspect`` command and the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.pipeline import CDCChunk
from repro.replay.durable_store import RecordArchive


@dataclass(frozen=True)
class ChunkStats:
    """Decoded statistics of one stored chunk."""

    rank: int
    callsite: str
    index: int  # position in the callsite's chunk sequence
    events: int
    moved: int
    with_next_entries: int
    unmatched_runs: int
    unmatched_tests: int
    senders: int
    has_assist: bool

    @property
    def permutation_percentage(self) -> float:
        return self.moved / self.events if self.events else 0.0

    @property
    def value_count(self) -> int:
        return (
            2 * self.moved
            + self.with_next_entries
            + 2 * self.unmatched_runs
            + 2 * self.senders
        )


def chunk_stats(rank: int, callsite_index: int, chunk: CDCChunk) -> ChunkStats:
    return ChunkStats(
        rank=rank,
        callsite=chunk.callsite,
        index=callsite_index,
        events=chunk.num_events,
        moved=chunk.diff.num_moved,
        with_next_entries=len(chunk.with_next_indices),
        unmatched_runs=len(chunk.unmatched_runs),
        unmatched_tests=sum(c for _, c in chunk.unmatched_runs),
        senders=chunk.epoch.num_ranks,
        has_assist=chunk.sender_sequence is not None,
    )


def iter_chunk_stats(archive: RecordArchive) -> Iterator[ChunkStats]:
    """Stats for every chunk, ranks then callsites then sequence order."""
    for rank in range(archive.nprocs):
        for callsite, chunks in sorted(archive.chunks_by_callsite(rank).items()):
            for i, chunk in enumerate(chunks):
                yield chunk_stats(rank, i, chunk)


@dataclass(frozen=True)
class CallsiteProfile:
    """Aggregated view of one callsite across all ranks."""

    callsite: str
    ranks: int
    chunks: int
    events: int
    moved: int
    unmatched_tests: int

    @property
    def permutation_percentage(self) -> float:
        return self.moved / self.events if self.events else 0.0

    @property
    def polling_ratio(self) -> float:
        """Unmatched tests per matched receive — how hot the poll loop is."""
        return self.unmatched_tests / self.events if self.events else 0.0


def profile_callsites(archive: RecordArchive) -> list[CallsiteProfile]:
    """One profile per callsite, sorted by event count descending."""
    acc: dict[str, dict[str, object]] = {}
    for stats in iter_chunk_stats(archive):
        entry = acc.setdefault(
            stats.callsite,
            {"ranks": set(), "chunks": 0, "events": 0, "moved": 0, "unmatched": 0},
        )
        entry["ranks"].add(stats.rank)  # type: ignore[union-attr]
        entry["chunks"] += 1  # type: ignore[operator]
        entry["events"] += stats.events  # type: ignore[operator]
        entry["moved"] += stats.moved  # type: ignore[operator]
        entry["unmatched"] += stats.unmatched_tests  # type: ignore[operator]
    profiles = [
        CallsiteProfile(
            callsite=cs,
            ranks=len(entry["ranks"]),  # type: ignore[arg-type]
            chunks=entry["chunks"],  # type: ignore[arg-type]
            events=entry["events"],  # type: ignore[arg-type]
            moved=entry["moved"],  # type: ignore[arg-type]
            unmatched_tests=entry["unmatched"],  # type: ignore[arg-type]
        )
        for cs, entry in acc.items()
    ]
    profiles.sort(key=lambda p: -p.events)
    return profiles
