"""Reference implementations the CDC frame path is checked against.

These are *oracles*: the per-column serializer, deserializer and size
walk that used to be the production path, kept only so tests can assert
the one-stream replacements give the same bytes, the same chunks and the
same errors. They live under ``tests/`` on purpose — nothing on the import
path may call them. So that they share no kernel with what they check,
every helper name the bodies call is bound here to the *scalar* reference
implementation (one Python step per byte). They follow the layout — the
version-3 edits (header bit instead of a presence byte; an assist chunk
stores ceiling steps and no epoch ranks, counts or first-clock gaps) are
made here column by column, independently of ``formats.CDC_COLUMNS``.

The second half is the *parent's encoder*, bodies verbatim from the
commit before "each fact once" (7b1d829): ``encode_chunk`` with its batch
and scalar helpers, ``encode_chunk_sequence`` and the per-sender slot
ranking of ``assist_occurrence_indices``. It still computes every column
an assist chunk no longer stores, and its ``diff`` is against Definition
6's ``(clock, rank)`` order, so tests can show that what the new layout
derives equals what the old one stored and that both schedules deliver
the same messages.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.analysis.size_model import SizeBreakdown
from repro.core.epoch import EpochLine
from repro.core.events import ReceiveEvent
from repro.core.formats import (
    CDC_MAGIC,
    _read_string_table,
    _write_string_table,
)
from repro.core.lp_encoding import lp_decode as lp_decode_auto
from repro.core.lp_encoding import lp_encode as lp_encode_auto
from repro.core.permutation import (
    PermutationDiff,
    encode_permutation,
    observed_as_reference_indices,
)
from repro.core.pipeline import CDCChunk, reference_order
from repro.core.record_table import RecordTable
from repro.core.varint import decode_svarint_array_scalar as decode_svarint_array
from repro.core.varint import decode_uvarint
from repro.core.varint import decode_uvarint_array_scalar as decode_uvarint_array
from repro.core.varint import encode_svarint_array_scalar as encode_svarint_array
from repro.core.varint import encode_uvarint
from repro.core.varint import encode_uvarint_array_scalar as encode_uvarint_array
from repro.core.varint import svarint_size, uvarint_size
from repro.errors import DecodingError, RecordFormatError
from repro.obs import get_registry, span

decode_svarint_array_np = decode_svarint_array

_CDC_TABLE_COUNTERS = (
    "permutation",
    "with_next",
    "unmatched",
    "epoch",
    "exceptions",
    "assist",
)


def _as_list(column) -> list[int]:
    return column


def array_payload_size(values: Sequence[int], signed: bool) -> int:
    size = svarint_size if signed else uvarint_size
    return uvarint_size(len(values)) + sum(size(v) for v in values)


def serialize_cdc_chunks_oracle(chunks: Sequence[CDCChunk]) -> bytes:
    """Serialize fully-encoded CDC chunks (LP-encoded index columns)."""
    registry = get_registry()
    track = registry.enabled
    table_bytes = dict.fromkeys(_CDC_TABLE_COUNTERS, 0) if track else None
    out = bytearray(CDC_MAGIC)
    callsites = sorted({c.callsite for c in chunks})
    _write_string_table(out, callsites)
    cs_id = {c: i for i, c in enumerate(callsites)}
    encode_uvarint(len(chunks), out)
    for chunk in chunks:
        assist = chunk.sender_sequence is not None
        encode_uvarint(cs_id[chunk.callsite] << 1 | assist, out)
        encode_uvarint(chunk.num_events, out)
        mark = len(out)
        out += encode_svarint_array(lp_encode_auto(chunk.diff.indices))
        out += encode_svarint_array(chunk.diff.delays)
        if track:
            table_bytes["permutation"] += len(out) - mark
            mark = len(out)
        out += encode_svarint_array(lp_encode_auto(chunk.with_next_indices))
        if track:
            table_bytes["with_next"] += len(out) - mark
            mark = len(out)
        out += encode_svarint_array(lp_encode_auto([i for i, _ in chunk.unmatched_runs]))
        out += encode_uvarint_array([c for _, c in chunk.unmatched_runs])
        if track:
            table_bytes["unmatched"] += len(out) - mark
            mark = len(out)
        pairs = chunk.epoch.as_sorted_pairs()
        ranks = [r for r, _ in pairs]
        if assist:
            if ranks != sorted(set(chunk.sender_sequence)):
                raise RecordFormatError("epoch ranks are not the sender column's")
            steps, previous = [], 0
            for _, ceiling in pairs:
                steps.append(ceiling - previous)
                previous = ceiling
            out += encode_svarint_array(steps)
        else:
            counts_by_rank = dict(chunk.sender_counts)
            mins_by_rank = dict(chunk.sender_min_clocks)
            if sorted(counts_by_rank) != ranks or sorted(mins_by_rank) != ranks:
                raise RecordFormatError("epoch / count / min-clock ranks disagree")
            out += encode_svarint_array(lp_encode_auto(ranks))
            out += encode_svarint_array([c for _, c in pairs])
            out += encode_uvarint_array([counts_by_rank[r] for r in ranks])
            # first clock per sender, stored as the (>= 0) gap below the epoch
            # ceiling — zero for single-receive senders, tiny after varints.
            out += encode_uvarint_array(
                [clock - mins_by_rank[r] for r, clock in pairs]
            )
        if track:
            table_bytes["epoch"] += len(out) - mark
            mark = len(out)
        # boundary exceptions (DESIGN.md §5.2): usually both arrays empty
        out += encode_uvarint_array([r for r, _ in chunk.boundary_exceptions])
        out += encode_svarint_array([c for _, c in chunk.boundary_exceptions])
        if track:
            table_bytes["exceptions"] += len(out) - mark
            mark = len(out)
        # replay-assist sender column (DESIGN.md §5.6), when the header says so
        if assist:
            out += encode_uvarint_array(chunk.sender_sequence)
        if track:
            table_bytes["assist"] += len(out) - mark
    if track:
        registry.counter("format.cdc.serialize_calls").add()
        registry.counter("format.cdc.chunks_out").add(len(chunks))
        registry.counter("format.cdc.bytes_out").add(len(out))
        for table, n in table_bytes.items():
            registry.counter(f"format.cdc.{table}_bytes").add(n)
    return bytes(out)



def deserialize_cdc_chunks_oracle(data: bytes) -> list[CDCChunk]:
    if data[:4] != CDC_MAGIC:
        raise RecordFormatError("bad CDC-record magic")
    callsites, offset = _read_string_table(data, 4)
    n, offset = decode_uvarint(data, offset)
    chunks: list[CDCChunk] = []
    for _ in range(n):
        head, offset = decode_uvarint(data, offset)
        cs, assist = head >> 1, head & 1
        if cs >= len(callsites):
            raise RecordFormatError(f"callsite id {cs} out of range")
        num_events, offset = decode_uvarint(data, offset)
        p_idx_lp, offset = decode_svarint_array_np(data, offset)
        p_delay, offset = decode_svarint_array(data, offset)
        w_idx_lp, offset = decode_svarint_array_np(data, offset)
        u_idx_lp, offset = decode_svarint_array_np(data, offset)
        u_cnt, offset = decode_uvarint_array(data, offset)
        if assist:
            e_step, offset = decode_svarint_array(data, offset)
        else:
            e_rank_lp, offset = decode_svarint_array_np(data, offset)
            e_clock, offset = decode_svarint_array(data, offset)
            e_count, offset = decode_uvarint_array(data, offset)
            e_min_gap, offset = decode_uvarint_array(data, offset)
        x_rank, offset = decode_uvarint_array(data, offset)
        x_clock, offset = decode_svarint_array(data, offset)
        if len(x_rank) != len(x_clock):
            raise RecordFormatError("boundary-exception columns disagree")
        p_idx = _as_list(lp_decode_auto(p_idx_lp))
        if len(p_idx) != len(p_delay):
            raise RecordFormatError("permutation columns disagree")
        u_idx = _as_list(lp_decode_auto(u_idx_lp))
        if len(u_idx) != len(u_cnt):
            raise RecordFormatError("unmatched columns disagree")
        sender_sequence: tuple[int, ...] | None = None
        if assist:
            seq, offset = decode_uvarint_array(data, offset)
            sender_sequence = tuple(seq)
            if len(seq) != num_events:
                raise RecordFormatError("sender column length is not num_events")
            e_rank = sorted(set(seq))
            if len(e_step) != len(e_rank):
                raise RecordFormatError("one ceiling per distinct sender")
            e_clock, e_count, e_min = [], [], ()
            for rank, step in zip(e_rank, e_step):
                e_clock.append(step + (e_clock[-1] if e_clock else 0))
                e_count.append(seq.count(rank))
        else:
            e_rank = _as_list(lp_decode_auto(e_rank_lp))
            if not (len(e_rank) == len(e_clock) == len(e_count) == len(e_min_gap)):
                raise RecordFormatError("epoch columns disagree")
            e_min = tuple((r, c - g) for r, c, g in zip(e_rank, e_clock, e_min_gap))
        chunks.append(
            CDCChunk(
                callsite=callsites[cs],
                num_events=num_events,
                diff=PermutationDiff(num_events, tuple(p_idx), tuple(p_delay)),
                with_next_indices=tuple(_as_list(lp_decode_auto(w_idx_lp))),
                unmatched_runs=tuple(zip(u_idx, u_cnt)),
                epoch=EpochLine(dict(zip(e_rank, e_clock))),
                sender_counts=tuple(zip(e_rank, e_count)),
                sender_min_clocks=e_min,
                boundary_exceptions=tuple(zip(x_rank, x_clock)),
                sender_sequence=sender_sequence,
            )
        )
    return chunks



def chunk_breakdown_oracle(chunk: CDCChunk, callsite_id: int = 0) -> SizeBreakdown:
    """Exact serialized byte counts of one chunk's tables.

    Mirrors the layout of :func:`repro.core.formats.serialize_cdc_chunks`
    (per-chunk part; the file-level magic and string table are accounted
    separately by :func:`archive_breakdown`).
    """
    b = SizeBreakdown(chunks=1, events=chunk.num_events)
    assist = chunk.sender_sequence is not None
    b.header = uvarint_size(callsite_id << 1 | assist) + uvarint_size(chunk.num_events)
    b.permutation = array_payload_size(
        lp_encode_auto(chunk.diff.indices), signed=True
    ) + array_payload_size(chunk.diff.delays, signed=True)
    b.with_next = array_payload_size(
        lp_encode_auto(chunk.with_next_indices), signed=True
    )
    u_idx = [i for i, _ in chunk.unmatched_runs]
    u_cnt = [c for _, c in chunk.unmatched_runs]
    b.unmatched = array_payload_size(
        lp_encode_auto(u_idx), signed=True
    ) + array_payload_size(u_cnt, signed=False)
    pairs = chunk.epoch.as_sorted_pairs()
    if assist:
        ceilings = [c for _, c in pairs]
        b.epoch = array_payload_size(
            [c - p for c, p in zip(ceilings, [0] + ceilings)], signed=True
        )
    else:
        counts = dict(chunk.sender_counts)
        mins = dict(chunk.sender_min_clocks)
        ranks = [r for r, _ in pairs]
        b.epoch = (
            array_payload_size(lp_encode_auto(ranks), signed=True)
            + array_payload_size([c for _, c in pairs], signed=True)
            + array_payload_size([counts[r] for r in ranks], signed=False)
            + array_payload_size([c - mins[r] for r, c in pairs], signed=False)
        )
    b.exceptions = array_payload_size(
        [r for r, _ in chunk.boundary_exceptions], signed=False
    ) + array_payload_size([c for _, c in chunk.boundary_exceptions], signed=True)
    if assist:
        b.assist = array_payload_size(chunk.sender_sequence, signed=False)
    return b


# ---------------------------------------------------------------------------
# The parent's encoder (commit 7b1d829), verbatim but for the ``_oracle``
# suffix on the four public names: every assist chunk's diff is against
# Definition 6's (clock, rank) order, and epoch ranks, per-sender counts and
# first clocks are computed from the events for both layouts.
# ---------------------------------------------------------------------------


def encode_chunk_oracle(
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


def encode_chunk_sequence_oracle(
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
        chunk = encode_chunk_oracle(
            table, replay_assist=replay_assist, prior_ceilings=ceilings
        )
        for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
            if ceilings.get(sender, -1) < ceiling:
                ceilings[sender] = ceiling
        chunks.append(chunk)
    return chunks


def assist_occurrence_indices_oracle(
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
