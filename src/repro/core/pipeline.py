"""End-to-end CDC encoding pipeline (Figure 5) and its inverse.

Encoding a :class:`~repro.core.record_table.RecordTable` chunk:

1. **Redundancy elimination** already happened structurally when the table
   was built (matched / with_next / unmatched split, Figure 6).
2. **Permutation encoding**: sort the matched receives by
   ``(clock, sender rank)`` into the reference order (Definition 6) and
   keep only the permutation difference to the observed order (Figure 7).
   The ``(rank, clock)`` identifier columns are *dropped entirely* — replay
   rebuilds them from the actually-received, replayable clocks.
3. **Epoch line**: per-sender clock ceilings so chunked replay stays
   correct (Section 3.5).
4. (**Linear predictive encoding** of the monotone index columns and the
   final gzip happen at serialization time in :mod:`repro.core.formats`.)

Decoding inverts the permutation given the receives observed during replay:
:func:`reconstruct_observed_order` is the operation the replayer performs
once a chunk's receives are in hand.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.epoch import EpochLine
from repro.core.events import ReceiveEvent
from repro.core.permutation import (
    PermutationDiff,
    apply_permutation,
    encode_permutation,
    observed_as_reference_indices,
)
from repro.core.record_table import RecordTable
from repro.errors import DecodingError
from repro.obs import get_registry, span


@dataclass(frozen=True)
class CDCChunk:
    """A fully CDC-encoded chunk: what actually reaches storage.

    Note what is *absent*: the matched ``(rank, clock)`` list. Only the
    deviation from the reference order is kept.

    ``sender_counts`` is a soundness hardening over the paper's pure
    clock-ceiling epoch test (DESIGN.md §5.2): per sender, how many of its
    receives the chunk contains. Because a sender's piggybacked clocks
    strictly increase and channels are FIFO, the chunk's members from rank
    ``r`` are exactly the next ``count_r`` arrivals from ``r`` at this
    callsite — correct even when an application-level inversion (Figure 3)
    spans a chunk boundary, where the clock test alone would misclassify.
    """

    callsite: str
    num_events: int
    diff: PermutationDiff
    with_next_indices: tuple[int, ...]
    unmatched_runs: tuple[tuple[int, int], ...]
    epoch: EpochLine
    sender_counts: tuple[tuple[int, int], ...]
    #: per sender, the clock of its *first* receive in the chunk. This
    #: bootstraps the replay-side Local Minimum Clock: before any message
    #: from a sender arrives, the smallest clock it can still contribute is
    #: known exactly, so early events become releasable without waiting on
    #: every channel (the paper's Axiom 1 presumes LMC knowledge; this is
    #: the cheap record-side hint that makes it computable online).
    sender_min_clocks: tuple[tuple[int, int], ...] = ()
    #: boundary exceptions: events of *this* chunk whose clock does not
    #: exceed an earlier chunk's per-sender ceiling at the same callsite.
    #: Without them, chunk membership is underdetermined whenever an
    #: application-level inversion spans a flush boundary (the paper's
    #: clock-ceiling test and a pure per-sender count both misassign such
    #: arrivals — found by property fuzzing, see DESIGN.md §5.2). Almost
    #: always empty; each entry costs two varints.
    boundary_exceptions: tuple[tuple[int, int], ...] = ()
    #: optional replay assist: the sender rank of each receive in observed
    #: order (the Figure 4 ``rank`` column). The paper drops it and relies
    #: on Axiom 1's LMC, which we show is not computable online from the
    #: stored record alone for general workloads (see DESIGN.md §5.6);
    #: with it, the event at observed position p is identified *exactly* as
    #: the k-th arrival from sender ``r_p`` (k derived from the stored
    #: permutation), making replay deadlock-free. Costs ~1-2 bits/event
    #: after gzip; ``None`` reproduces the paper's format byte-for-value.
    sender_sequence: tuple[int, ...] | None = None

    def value_count(self) -> int:
        """Stored-value count (19 for the paper's Figure 4→8 example).

        Follows the paper's accounting (Figure 8): permutation rows,
        with_next entries, unmatched runs, epoch-line pairs. The hardening
        counts ride along with the epoch pairs and are excluded so the
        worked example stays comparable.
        """
        return (
            2 * self.diff.num_moved
            + len(self.with_next_indices)
            + 2 * len(self.unmatched_runs)
            + self.epoch.value_count()
        )


#: Definition 6 sort key, precomputed as a C-level attribute fetch instead
#: of a Python lambda calling the ``key`` property per comparison.
_REF_KEY = operator.attrgetter("clock", "rank")


def reference_order(events: Iterable[ReceiveEvent]) -> list[ReceiveEvent]:
    """Sort receives into the Definition 6 reference order.

    Primary key: piggybacked Lamport clock; tie-break: sender rank ("a
    message from a smaller rank is earlier than ones from bigger ranks").
    """
    return sorted(events, key=_REF_KEY)


def encode_chunk(
    table: RecordTable,
    replay_assist: bool = False,
    prior_ceilings: Mapping[int, int] | None = None,
) -> CDCChunk:
    """CDC-encode one record-table chunk.

    ``replay_assist=True`` additionally stores the observed-order sender
    column, enabling deterministic online replay (DESIGN.md §5.6); the
    default reproduces the paper's format exactly.

    ``prior_ceilings`` maps sender rank to the highest clock recorded for
    it in *earlier* chunks of the same callsite; events at or below their
    sender's prior ceiling become boundary exceptions (see CDCChunk).
    """
    matched = table.matched
    with span("cdc.encode_chunk", callsite=table.callsite, events=len(matched)):
        encoded = _encode_matched_batch(matched, prior_ceilings)
        if encoded is None:
            encoded = _encode_matched_scalar(matched, prior_ceilings)
        observed_indices, sender_counts, sender_min_clocks, exceptions = encoded
        chunk = CDCChunk(
            callsite=table.callsite,
            num_events=len(matched),
            # both index paths construct a valid permutation (inverse argsort /
            # unique-key lookup), so the O(n) re-validation is skipped
            diff=encode_permutation(observed_indices, validated=True),
            with_next_indices=table.with_next_indices,
            unmatched_runs=table.unmatched_runs,
            epoch=EpochLine.from_events(matched),
            sender_counts=sender_counts,
            sender_min_clocks=sender_min_clocks,
            boundary_exceptions=exceptions,
            sender_sequence=tuple(ev.rank for ev in matched)
            if replay_assist
            else None,
        )
    registry = get_registry()
    if registry.enabled:
        registry.counter("encode.chunks").add()
        registry.counter("encode.events").add(len(matched))
        registry.counter("encode.moved_events").add(chunk.diff.num_moved)
    return chunk


def _encode_matched_batch(
    matched: Sequence[ReceiveEvent],
    prior_ceilings: Mapping[int, int] | None,
) -> tuple | None:
    """Vectorized permutation indices + per-sender stats for one chunk.

    Returns ``None`` when any rank/clock falls outside int64 (arbitrary
    precision: the scalar path handles it). Results are identical to
    :func:`_encode_matched_scalar` — asserted by the pipeline property
    tests.
    """
    n = len(matched)
    if n == 0:
        return [], (), (), ()
    try:
        ranks = np.fromiter((ev.rank for ev in matched), np.int64, count=n)
        clocks = np.fromiter((ev.clock for ev in matched), np.int64, count=n)
        order = np.lexsort((ranks, clocks))  # Definition 6: clock, then rank
        sorted_ranks = ranks[order]
        sorted_clocks = clocks[order]
        if n > 1 and bool(
            (
                (sorted_clocks[1:] == sorted_clocks[:-1])
                & (sorted_ranks[1:] == sorted_ranks[:-1])
            ).any()
        ):
            raise DecodingError("reference keys are not unique")
        # observed position p holds the event at reference slot inv[p]
        inv = np.empty(n, dtype=np.intp)
        inv[order] = np.arange(n, dtype=np.intp)
        # per-sender count and min clock: ``sorted_ranks`` is in ascending
        # clock order, so each sender's first occurrence is its min clock
        uniq, first_idx, rank_counts = np.unique(
            sorted_ranks, return_index=True, return_counts=True
        )
        sender_counts = tuple(zip(uniq.tolist(), rank_counts.tolist()))
        sender_min_clocks = tuple(
            zip(uniq.tolist(), sorted_clocks[first_idx].tolist())
        )
        exceptions: tuple = ()
        if prior_ceilings:
            ceil = np.fromiter(
                (prior_ceilings.get(int(r), -1) for r in uniq),
                np.int64,
                count=uniq.shape[0],
            )
            over = clocks <= ceil[np.searchsorted(uniq, ranks)]
            if bool(over.any()):
                exceptions = tuple(
                    sorted(zip(ranks[over].tolist(), clocks[over].tolist()))
                )
        return inv.tolist(), sender_counts, sender_min_clocks, exceptions
    except OverflowError:
        return None


def _encode_matched_scalar(
    matched: Sequence[ReceiveEvent],
    prior_ceilings: Mapping[int, int] | None,
) -> tuple:
    """Reference implementation of :func:`_encode_matched_batch`."""
    ref = reference_order(matched)
    observed_indices = observed_as_reference_indices(
        [ev.key for ev in matched], [ev.key for ev in ref]
    )
    counts: dict[int, int] = {}
    min_clocks: dict[int, int] = {}
    for ev in matched:
        counts[ev.rank] = counts.get(ev.rank, 0) + 1
        if ev.rank not in min_clocks or ev.clock < min_clocks[ev.rank]:
            min_clocks[ev.rank] = ev.clock
    exceptions: list[tuple[int, int]] = []
    if prior_ceilings:
        for ev in matched:
            if ev.clock <= prior_ceilings.get(ev.rank, -1):
                exceptions.append((ev.rank, ev.clock))
    return (
        observed_indices,
        tuple(sorted(counts.items())),
        tuple(sorted(min_clocks.items())),
        tuple(sorted(exceptions)),
    )


def encode_chunk_sequence(
    tables: Sequence[RecordTable], replay_assist: bool = False
) -> list[CDCChunk]:
    """Encode consecutive chunks of ONE callsite with boundary tracking.

    Mirrors what the online recorder does: each chunk is encoded against
    the running per-sender ceilings of its predecessors so boundary
    exceptions are marked (DESIGN.md §5.2).
    """
    ceilings: dict[int, int] = {}
    chunks: list[CDCChunk] = []
    for table in tables:
        chunk = encode_chunk(
            table, replay_assist=replay_assist, prior_ceilings=ceilings
        )
        for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
            if ceilings.get(sender, -1) < ceiling:
                ceilings[sender] = ceiling
        chunks.append(chunk)
    return chunks


def assist_occurrence_indices(
    chunk: CDCChunk, order: Sequence[int] | None = None
) -> list[int]:
    """For each observed position, which arrival from its sender it is.

    With the replay-assist column, the event at observed position ``p`` is
    the ``k``-th message (1-based) its sender contributes to the chunk *in
    clock order*. ``k`` is derivable without any clock: a sender's slots in
    the reference order are its events in clock order, and the stored
    permutation exposes every position's reference slot — so ``k`` is the
    rank of ``order[p]`` among the sender's own slots.

    ``order`` is the chunk's decoded permutation, for callers that already
    hold it; it is decoded here otherwise.
    """
    if chunk.sender_sequence is None:
        raise DecodingError("chunk carries no replay-assist column")
    if order is None:
        from repro.core.permutation import decode_permutation

        order = decode_permutation(chunk.diff)
    slots_by_sender: dict[int, list[int]] = {}
    for sender, slot in zip(chunk.sender_sequence, order):
        slots_by_sender.setdefault(sender, []).append(slot)
    # ``order`` is a permutation, so one flat list indexed by reference
    # slot holds every sender's ranking
    rank_of_slot = [0] * len(order)
    for slots in slots_by_sender.values():
        slots.sort()
        for k, slot in enumerate(slots, start=1):
            rank_of_slot[slot] = k
    return [rank_of_slot[slot] for slot in order]


def reconstruct_observed_order(
    chunk: CDCChunk, received: Sequence[ReceiveEvent]
) -> list[ReceiveEvent]:
    """Recover the recorded observed order from replay-time receives.

    ``received`` is the chunk's matched set as observed during replay, in
    any order. Its clocks must equal the record-time clocks (Theorem 2);
    the reference order is rebuilt from them and the stored permutation
    difference is applied.
    """
    if len(received) != chunk.num_events:
        raise DecodingError(
            f"chunk {chunk.callsite!r} expects {chunk.num_events} receives, "
            f"got {len(received)}"
        )
    with span("cdc.decode_chunk", callsite=chunk.callsite, events=len(received)):
        keys = {ev.key for ev in received}
        if len(keys) != len(received):
            raise DecodingError(
                "duplicate (clock, rank) identifiers in chunk receives"
            )
        ref = reference_order(received)
        observed = apply_permutation(chunk.diff, ref)
    registry = get_registry()
    if registry.enabled:
        registry.counter("decode.chunks").add()
        registry.counter("decode.events").add(len(received))
    return observed


def reconstruct_table(chunk: CDCChunk, received: Sequence[ReceiveEvent]) -> RecordTable:
    """Full decode: rebuild the record table a chunk represents.

    This is the offline inverse used by tests and tooling; the online
    replayer streams the same information incrementally.
    """
    observed = reconstruct_observed_order(chunk, received)
    return RecordTable(
        callsite=chunk.callsite,
        matched=tuple(observed),
        with_next_indices=chunk.with_next_indices,
        unmatched_runs=chunk.unmatched_runs,
    )


def chunk_members(
    chunk: CDCChunk,
    candidates: Iterable[ReceiveEvent],
    later_exceptions: Iterable[tuple[int, int]] = (),
) -> tuple[list[ReceiveEvent], list[ReceiveEvent]]:
    """Split candidate receives into (chunk members, later-chunk rest).

    ``candidates`` must be in per-sender arrival order (guaranteed when they
    come from FIFO channels). Membership takes, per sender, the first
    ``count_r`` candidates — except events claimed by a *later* chunk's
    boundary exceptions, which are exactly the arrivals that would
    otherwise be misassigned when an inversion spans the flush boundary
    (DESIGN.md §5.2).
    """
    quota = dict(chunk.sender_counts)
    claimed = set(later_exceptions)
    members: list[ReceiveEvent] = []
    rest: list[ReceiveEvent] = []
    for ev in candidates:
        remaining = quota.get(ev.rank, 0)
        if remaining > 0 and (ev.rank, ev.clock) not in claimed:
            quota[ev.rank] = remaining - 1
            members.append(ev)
        else:
            rest.append(ev)
    return members, rest
