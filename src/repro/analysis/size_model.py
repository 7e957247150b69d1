"""Exact byte attribution for the CDC chunk format.

Answers "where do the record's bytes actually go?" with the serialized size
of every table in a chunk as :mod:`repro.core.formats` writes it: varints and
plane bytes in their column's table, flags and counts in the header. The breakdown
explains the evaluation: MCB's bytes sit in the permutation table, Jacobi's
in the epoch/sender tables, unmatched-heavy polls in the unmatched runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.formats import CALLSITE_ID_BYTES, CDC_BUCKETS, cdc_record_sizes
from repro.core.pipeline import CDCChunk
from repro.replay.durable_store import RecordArchive


@dataclass
class SizeBreakdown:
    """Pre-gzip bytes per CDC table, summed over chunks."""

    permutation: int = 0
    with_next: int = 0
    unmatched: int = 0
    epoch: int = 0
    exceptions: int = 0
    assist: int = 0
    header: int = 0
    chunks: int = 0
    events: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, bucket) for bucket in CDC_BUCKETS)

    def per_event(self) -> dict[str, float]:
        n = max(1, self.events)
        return {bucket: getattr(self, bucket) / n for bucket in CDC_BUCKETS}

    def add(self, other: "SizeBreakdown") -> None:
        for name in CDC_BUCKETS + ("chunks", "events"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def chunks_breakdown(
    chunks: Sequence[CDCChunk], callsite_ids: Mapping[str, int]
) -> SizeBreakdown:
    """Exact serialized bytes of the chunks' records, summed per table. The
    callsite a frame payload opens with is :func:`archive_breakdown`'s."""
    sizes = cdc_record_sizes(chunks, callsite_ids)
    return SizeBreakdown(
        **dict(zip(CDC_BUCKETS, sizes.tolist())),
        chunks=len(chunks),
        events=sum(c.num_events for c in chunks),
    )


def archive_breakdown(archive: RecordArchive) -> SizeBreakdown:
    """Pre-deflate breakdown of a whole archive, frame by frame.

    ``total`` is :meth:`RecordArchive.total_payload_bytes`; the 4-byte
    callsite id each frame payload opens with lands in ``header``.
    """
    chunks = [chunk for _, chunk in archive.iter_all()]
    # the id is the payload's; a record's own callsite index is always 0
    total = chunks_breakdown(chunks, dict.fromkeys((c.callsite for c in chunks), 0))
    total.header += CALLSITE_ID_BYTES * len(chunks)
    return total
