"""End-to-end CDC encoding pipeline (Figure 5) and its inverse.

Encoding one chunk of a callsite's matched receives
(:func:`repro.core.columnar.encode_table` is the encoder; this module holds
the encoded :class:`CDCChunk` and everything that reads one back):

1. **Redundancy elimination** already happened structurally when the table
   was built (matched / with_next / unmatched split, Figure 6).
2. **Permutation encoding**: sort the matched receives by
   ``(clock, sender rank)`` into the reference order (Definition 6) and
   keep only the permutation difference to the observed order (Figure 7).
   The ``(rank, clock)`` identifier columns are *dropped entirely* — replay
   rebuilds them from the actually-received, replayable clocks. A chunk
   that stores the replay-assist sender column takes that column as its
   reference order instead (DESIGN.md §5.9).
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
from typing import Iterable, Sequence

from repro.core.epoch import EpochLine
from repro.core.events import ReceiveEvent
from repro.core.permutation import PermutationDiff, apply_permutation, decode_permutation
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

    A chunk with the replay-assist column stores each fact once (DESIGN.md
    §5.9): ``diff`` is against the order ``sender_sequence`` spells out —
    slot ``q`` holds the next-smallest-clock receive of sender ``s_q`` — so
    it is empty unless one sender was observed out of clock order; ``epoch``
    keys and ``sender_counts`` are that column's distinct values and
    histogram, rebuilt on read; ``sender_min_clocks``, read only by the
    assist-less replay, is empty.
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
    #: the k-th arrival from sender ``r_p`` (k = how often ``r_p`` occurs up
    #: to slot ``order[p]``), making replay deadlock-free. Costs ~1-2
    #: bits/event after gzip; ``None`` reproduces the paper's format
    #: byte-for-value.
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
_CLOCK = operator.attrgetter("clock")


def reference_order(events: Iterable[ReceiveEvent]) -> list[ReceiveEvent]:
    """Sort receives into the Definition 6 reference order.

    Primary key: piggybacked Lamport clock; tie-break: sender rank ("a
    message from a smaller rank is earlier than ones from bigger ranks").
    """
    return sorted(events, key=_REF_KEY)


def assist_occurrence_indices(
    chunk: CDCChunk, order: Sequence[int] | None = None
) -> list[int]:
    """For each observed position, which arrival from its sender it is.

    With the replay-assist column, the event at observed position ``p`` is
    the ``k``-th message (1-based) its sender contributes to the chunk *in
    clock order*. ``k`` needs no clock: slot ``q`` of the chunk's reference
    order holds the ``k``-th receive of ``senders[q]``, ``k`` counting that
    sender's occurrences up to ``q``, and the stored permutation says which
    slot each position holds (its own, when the diff is empty).

    ``order`` is the chunk's decoded permutation, for callers that already
    hold it; it is decoded here otherwise.
    """
    senders = chunk.sender_sequence
    if senders is None:
        raise DecodingError("chunk carries no replay-assist column")
    if order is None:
        order = decode_permutation(chunk.diff)
    seen: dict[int, int] = {}
    kth = []
    for sender in senders:
        seen[sender] = k = seen.get(sender, 0) + 1
        kth.append(k)
    if len(order) != len(kth) or (
        chunk.diff.indices and any(senders[q] != s for s, q in zip(senders, order))
    ):
        raise DecodingError("permutation moves an event off its sender's slots")
    return [kth[q] for q in order]


def reconstruct_observed_order(
    chunk: CDCChunk, received: Sequence[ReceiveEvent]
) -> list[ReceiveEvent]:
    """Recover the recorded observed order from replay-time receives.

    ``received`` is the chunk's matched set as observed during replay, in
    any order. Its clocks must equal the record-time clocks (Theorem 2);
    the reference order is rebuilt from them — laid along the sender column
    when the chunk stores one, Definition 6's otherwise — and the stored
    permutation difference is applied.
    """
    if len(received) != chunk.num_events:
        raise DecodingError(
            f"chunk {chunk.callsite!r} expects {chunk.num_events} receives, "
            f"got {len(received)}"
        )
    with span("cdc.decode_chunk", callsite=chunk.callsite, events=len(received)):
        if len(set(map(_REF_KEY, received))) != len(received):
            raise DecodingError(
                "duplicate (clock, rank) identifiers in chunk receives"
            )
        senders = chunk.sender_sequence
        if senders is None:
            ref = reference_order(received)
        else:  # each sender's receives, by clock, laid along its column
            queues: dict[int, list[ReceiveEvent]] = {}
            for ev in received:
                queues.setdefault(ev.rank, []).append(ev)
            for queue in queues.values():
                queue.sort(key=_CLOCK, reverse=True)
            try:
                ref = [queues[sender].pop() for sender in senders]
            except (KeyError, IndexError):
                raise DecodingError("receives do not match the sender column") from None
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
