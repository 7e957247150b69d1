"""Hypothesis properties over the full encode→serialize→decode pipeline.

Strategies generate realistic MF outcome streams (per-sender strictly
increasing piggybacked clocks, mixed matched/unmatched outcomes, multi-
match groups) and check, for arbitrary inputs:

* chunked build → CDC encode → serialize → deserialize → reconstruct
  reproduces the exact observed stream;
* the value-count accounting is internally consistent;
* raw/RE serializations round-trip;
* compression sizes are positive and raw dominates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Method, compare_methods, reconstruct_table, value_count_breakdown
from repro.core.events import MFKind, MFOutcome, ReceiveEvent, outcomes_to_rows
from repro.core.formats import (
    deserialize_cdc_chunks,
    serialize_cdc_chunks,
    serialize_raw_rows,
    serialize_re_tables,
)
from tests.core import oracles
from tests.core.oracles import deserialize_raw_rows, deserialize_re_tables
from tests.core.test_pipeline import build_tables, encode_chunk


@st.composite
def outcome_streams(draw, max_events=60, max_senders=5, n_callsites=2):
    """A legal MF outcome stream with unique, per-sender-increasing clocks."""
    n_events = draw(st.integers(0, max_events))
    n_senders = draw(st.integers(1, max_senders))
    clocks = {s: draw(st.integers(0, 3)) for s in range(n_senders)}
    events = []
    for _ in range(n_events):
        s = draw(st.integers(0, n_senders - 1))
        clocks[s] += draw(st.integers(1, 4))
        # distinct senders may share clock values (ties broken by rank)
        events.append(ReceiveEvent(s, clocks[s] * n_senders + s))
    # partition events into outcomes with occasional multi-match groups
    outcomes = []
    i = 0
    while i < len(events):
        if draw(st.booleans()):
            outcomes.append(MFOutcome(f"cs{draw(st.integers(0, n_callsites - 1))}", MFKind.TEST, ()))
        group = min(len(events) - i, draw(st.integers(1, 3)))
        kind = MFKind.TESTSOME if group > 1 else MFKind.TEST
        cs = f"cs{draw(st.integers(0, n_callsites - 1))}"
        outcomes.append(MFOutcome(cs, kind, tuple(events[i : i + group])))
        i += group
    for _ in range(draw(st.integers(0, 2))):
        outcomes.append(MFOutcome("cs0", MFKind.TEST, ()))
    return outcomes


class TestFullPipeline:
    @given(outcome_streams(), st.integers(2, 16), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_chunked_encode_decode_reproduces_stream(self, outcomes, chunk_events, assist):
        tables = build_tables(outcomes, chunk_events=chunk_events)
        for callsite, chunk_list in tables.items():
            for table in chunk_list:
                chunk = encode_chunk(table, replay_assist=assist)
                data = serialize_cdc_chunks([chunk])
                decoded = deserialize_cdc_chunks(data)[0]
                rebuilt = reconstruct_table(decoded, list(table.matched))
                assert rebuilt == table

    @given(outcome_streams())
    @settings(max_examples=100, deadline=None)
    def test_value_counts_consistent(self, outcomes):
        vc = value_count_breakdown(outcomes)
        assert vc.raw >= vc.after_re
        n_matched = sum(len(o.matched) for o in outcomes)
        rows = list(outcomes_to_rows(outcomes))
        assert vc.raw == 5 * len(rows)
        # RE keeps 2 values per matched event plus tables
        assert vc.after_re >= 2 * n_matched

    @given(outcome_streams())
    @settings(max_examples=80, deadline=None)
    def test_raw_and_re_roundtrip(self, outcomes):
        rows = list(outcomes_to_rows(outcomes))
        assert deserialize_raw_rows(serialize_raw_rows(rows)) == rows
        tables = [t for ts in build_tables(outcomes).values() for t in ts]
        assert deserialize_re_tables(serialize_re_tables(tables)) == tables

    @given(outcome_streams(max_events=40))
    @settings(max_examples=50, deadline=None)
    def test_method_size_sanity(self, outcomes):
        report = compare_methods(outcomes)
        if not outcomes:
            return
        assert all(size >= 0 for size in report.sizes.values())
        if report.num_receive_events >= 20:
            assert report.sizes[Method.RAW] >= report.sizes[Method.CDC_RE]

    @given(outcome_streams(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_batch_matched_stats_equal_scalar(self, outcomes, with_ceilings):
        """The array builder and encoder against the object pipeline they
        replaced (``tests/core/oracles.py``): the same tables and the same
        chunk, with and without the assist column."""
        reference = oracles.build_tables(outcomes, chunk_events=12)
        assert reference == build_tables(outcomes, chunk_events=12)
        for chunk_list in reference.values():
            ceilings: dict[int, int] = {}
            for table in chunk_list:
                prior = dict(ceilings) if with_ceilings else None
                for assist in (False, True):
                    scalar = oracles.encode_chunk_scalar(table, assist, prior)
                    assert encode_chunk(table, assist, prior) == scalar
                for ev in table.matched:
                    if ev.clock > ceilings.get(ev.rank, -1):
                        ceilings[ev.rank] = ev.clock

    @given(outcome_streams())
    @settings(max_examples=80, deadline=None)
    def test_epoch_lines_cover_all_members(self, outcomes):
        tables = build_tables(outcomes, chunk_events=8)
        for chunk_list in tables.values():
            for table in chunk_list:
                chunk = encode_chunk(table)
                assert all(chunk.epoch.contains(ev) for ev in table.matched)
                counts = dict(chunk.sender_counts)
                assert sum(counts.values()) == table.num_events
                mins = dict(chunk.sender_min_clocks)
                for ev in table.matched:
                    assert mins[ev.rank] <= ev.clock
