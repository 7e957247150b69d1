"""End-to-end chunk encode/decode (Figure 5 pipeline)."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.columnar import ColumnarTable, build_columnar_tables, encode_table
from repro.core.events import ReceiveEvent
from repro.core.permutation import decode_permutation
from repro.core.pipeline import (
    assist_occurrence_indices,
    reconstruct_observed_order,
    reconstruct_table,
    reference_order,
)
from repro.core.record_table import RecordTable
from repro.errors import DecodingError
from tests.core import oracles


def random_events(n_senders, n_events, seed, shuffle=True):
    """Unique (rank, clock) events with per-sender strictly increasing clocks."""
    rng = random.Random(seed)
    clocks = {s: rng.randrange(5) for s in range(n_senders)}
    per_sender = []
    for _ in range(n_events):
        s = rng.randrange(n_senders)
        clocks[s] += rng.randrange(1, 4)
        per_sender.append(ReceiveEvent(s, clocks[s]))
    if shuffle:
        # app-level observed order: jitter within a window, preserving
        # nothing in particular (any order is a legal observation)
        rng.shuffle(per_sender)
    return per_sender


def table_of(events, with_next=(), unmatched=(), callsite="cs"):
    return RecordTable(callsite, tuple(events), tuple(with_next), tuple(unmatched))


# Object tables in, object tables out, the production builder and encoder in
# between: what the tests here and in the neighbouring files build chunks with.


def as_columnar_table(table):
    """An object table's receives as columns."""
    return ColumnarTable(
        table.callsite,
        np.array([ev.rank for ev in table.matched], dtype=np.int64),
        np.array([ev.clock for ev in table.matched], dtype=np.int64),
        table.with_next_indices,
        table.unmatched_runs,
    )


def encode_chunk(table, replay_assist=False, prior_ceilings=None):
    """``encode_table`` over an object table."""
    return encode_table(as_columnar_table(table), replay_assist, prior_ceilings)


#: consecutive chunks of one callsite, each against its predecessors' ceilings
encode_chunk_sequence = functools.partial(oracles.encode_chunk_sequence, encode=encode_chunk)


def build_tables(outcomes, chunk_events=None):
    """``build_columnar_tables``' chunks as object tables."""
    tables = build_columnar_tables(outcomes, chunk_events)
    return {cs: [t.to_record_table() for t in ts] for cs, ts in tables.items()}


def chunk_members(chunk, candidates, later_exceptions=()):
    """Split per-sender-FIFO candidates into (chunk members, later-chunk
    rest): per sender the first ``count_r``, except events a later chunk's
    boundary exceptions claim (DESIGN.md §5.2)."""
    quota = dict(chunk.sender_counts)
    claimed = set(later_exceptions)
    members, rest = [], []
    for ev in candidates:
        remaining = quota.get(ev.rank, 0)
        if remaining > 0 and (ev.rank, ev.clock) not in claimed:
            quota[ev.rank] = remaining - 1
            members.append(ev)
        else:
            rest.append(ev)
    return members, rest


class TestReferenceOrder:
    def test_sorts_by_clock_then_rank(self):
        events = [ReceiveEvent(2, 8), ReceiveEvent(1, 8), ReceiveEvent(0, 2)]
        assert reference_order(events) == [
            ReceiveEvent(0, 2),
            ReceiveEvent(1, 8),
            ReceiveEvent(2, 8),
        ]

    def test_figure7_reference(self, paper_outcomes):
        table = build_tables(paper_outcomes)["A"][0]
        ref = reference_order(table.matched)
        assert [(e.rank, e.clock) for e in ref] == [
            (0, 2), (1, 8), (2, 8), (0, 13), (0, 15), (0, 17), (0, 18), (1, 19),
        ]


class TestChunkEncode:
    def test_identifiers_are_dropped(self, paper_outcomes):
        table = build_tables(paper_outcomes)["A"][0]
        chunk = encode_chunk(table)
        assert chunk.value_count() == 19  # the paper's 55 -> 19
        assert chunk.sender_sequence is None

    def test_sender_counts_and_min_clocks(self):
        events = [ReceiveEvent(0, 3), ReceiveEvent(1, 5), ReceiveEvent(0, 9)]
        chunk = encode_chunk(table_of(events))
        assert chunk.sender_counts == ((0, 2), (1, 1))
        assert chunk.sender_min_clocks == ((0, 3), (1, 5))

    def test_replay_assist_column(self):
        events = [ReceiveEvent(2, 3), ReceiveEvent(0, 5)]
        chunk = encode_chunk(table_of(events), replay_assist=True)
        assert chunk.sender_sequence == (2, 0)


class TestReconstruction:
    @given(st.integers(1, 6), st.integers(1, 60), st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_observed_order_roundtrip(self, senders, n, seed):
        events = random_events(senders, n, seed)
        chunk = encode_chunk(table_of(events))
        # replay sees the same events in any order; decode must recover the
        # recorded observed order exactly
        scrambled = list(events)
        random.Random(seed + 1).shuffle(scrambled)
        assert reconstruct_observed_order(chunk, scrambled) == events

    def test_full_table_roundtrip(self, paper_outcomes):
        table = build_tables(paper_outcomes)["A"][0]
        chunk = encode_chunk(table)
        rebuilt = reconstruct_table(chunk, list(table.matched))
        assert rebuilt == table

    def test_wrong_event_count_rejected(self):
        chunk = encode_chunk(table_of([ReceiveEvent(0, 1), ReceiveEvent(0, 2)]))
        with pytest.raises(DecodingError):
            reconstruct_observed_order(chunk, [ReceiveEvent(0, 1)])

    def test_duplicate_identifiers_rejected(self):
        chunk = encode_chunk(table_of([ReceiveEvent(0, 1), ReceiveEvent(0, 2)]))
        with pytest.raises(DecodingError):
            reconstruct_observed_order(chunk, [ReceiveEvent(0, 1), ReceiveEvent(0, 1)])


class TestChunkMembers:
    def test_quota_takes_first_arrivals_per_sender(self):
        events = [ReceiveEvent(0, 1), ReceiveEvent(0, 3), ReceiveEvent(1, 2)]
        chunk = encode_chunk(table_of(events))
        candidates = [
            ReceiveEvent(0, 1),
            ReceiveEvent(1, 2),
            ReceiveEvent(0, 3),
            ReceiveEvent(0, 9),  # beyond quota -> next chunk
            ReceiveEvent(2, 1),  # unknown sender -> next chunk
        ]
        members, rest = chunk_members(chunk, candidates)
        assert members == events[:1] + [ReceiveEvent(1, 2), ReceiveEvent(0, 3)]
        assert rest == [ReceiveEvent(0, 9), ReceiveEvent(2, 1)]

    def test_boundary_spanning_inversion_handled(self):
        """The case where both the paper's clock-ceiling test and a naive
        per-sender count misassign arrivals: chunk 1 observed (r,17) while
        (r,16) belongs to chunk 2. The later chunk's boundary exception
        pins (r,16) to it."""
        tables = [
            table_of([ReceiveEvent(0, 17)]),
            table_of([ReceiveEvent(0, 16)]),
        ]
        chunk1, chunk2 = encode_chunk_sequence(tables)
        assert chunk2.boundary_exceptions == ((0, 16),)
        arrivals = [ReceiveEvent(0, 16), ReceiveEvent(0, 17)]
        members, rest = chunk_members(
            chunk1, arrivals, later_exceptions=chunk2.boundary_exceptions
        )
        assert members == [ReceiveEvent(0, 17)]
        assert rest == [ReceiveEvent(0, 16)]

    def test_no_exceptions_without_spanning(self):
        tables = [
            table_of([ReceiveEvent(0, 3), ReceiveEvent(1, 9)]),
            table_of([ReceiveEvent(0, 8), ReceiveEvent(1, 12)]),
        ]
        _, chunk2 = encode_chunk_sequence(tables)
        assert chunk2.boundary_exceptions == ()


class TestAssistOccurrences:
    def test_occurrence_indices_identify_kth_arrival(self):
        # observed: (1,c9), (0,c2), (1,c4) — sender 1's receives are its
        # 2nd and 1st in clock order respectively
        events = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        chunk = encode_chunk(table_of(events), replay_assist=True)
        assert assist_occurrence_indices(chunk) == [2, 1, 1]

    def test_missing_assist_rejected(self):
        chunk = encode_chunk(table_of([ReceiveEvent(0, 1)]))
        with pytest.raises(DecodingError):
            assist_occurrence_indices(chunk)

    @given(st.integers(1, 5), st.integers(1, 50), st.integers(0, 10**6))
    def test_occurrences_consistent_with_clock_order(self, senders, n, seed):
        events = random_events(senders, n, seed)
        chunk = encode_chunk(table_of(events), replay_assist=True)
        occ = assist_occurrence_indices(chunk)
        # a caller that already decoded the permutation hands it over
        assert assist_occurrence_indices(chunk, decode_permutation(chunk.diff)) == occ
        per_sender_sorted = {}
        for ev in events:
            per_sender_sorted.setdefault(ev.rank, []).append(ev)
        for s in per_sender_sorted:
            per_sender_sorted[s].sort(key=lambda e: e.clock)
        for p, ev in enumerate(events):
            k = occ[p]
            assert per_sender_sorted[ev.rank][k - 1] == ev
