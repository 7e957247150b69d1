"""Record tables: the Figure 6 decomposition, as the streaming builder
(``ColumnarTableBuilder``) seals it and ``to_record_table`` hands it out."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.columnar import ColumnarTableBuilder
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.record_table import RecordTable
from tests.core.test_pipeline import build_tables


def outcome_stream(seed_events):
    """[(flag, [(rank, clock), ...])] -> MFOutcome list."""
    outs = []
    for matched in seed_events:
        events = tuple(ReceiveEvent(r, c) for r, c in matched)
        kind = MFKind.TESTSOME if len(events) != 1 else MFKind.TEST
        outs.append(MFOutcome("cs", kind, events))
    return outs


class TestBuilder:
    def test_figure6_decomposition(self, paper_outcomes):
        builder = ColumnarTableBuilder("A")
        for o in paper_outcomes:
            builder.add(o)
        table = builder.flush().to_record_table()
        assert len(table.matched) == 8
        assert table.with_next_indices == (1,)  # event (0,13) chains to (2,8)
        assert table.unmatched_runs == ((1, 2), (6, 3), (7, 1))

    def test_value_counts_match_paper(self, paper_outcomes):
        builder = ColumnarTableBuilder("A")
        for o in paper_outcomes:
            builder.add(o)
        table = builder.flush().to_record_table()
        assert table.raw_value_count() == 55
        assert table.encoded_value_count() == 23

    def test_wrong_callsite_rejected(self):
        builder = ColumnarTableBuilder("A")
        with pytest.raises(ValueError):
            builder.add(MFOutcome("B", MFKind.TEST, ()))

    def test_flush_resets(self):
        builder = ColumnarTableBuilder("A")
        builder.add(MFOutcome("A", MFKind.TEST, (ReceiveEvent(0, 1),)))
        builder.flush()
        assert not builder.dirty
        assert builder.flush().num_events == 0

    def test_trailing_unmatched_attach_to_flush(self):
        builder = ColumnarTableBuilder("A")
        builder.add(MFOutcome("A", MFKind.TEST, (ReceiveEvent(0, 1),)))
        builder.add(MFOutcome("A", MFKind.TEST, ()))
        table = builder.flush()
        assert table.unmatched_runs == ((1, 1),)


class TestTableValidation:
    def test_unmatched_indices_must_increase(self):
        with pytest.raises(ValueError):
            RecordTable("x", (ReceiveEvent(0, 1),), (), ((0, 1), (0, 2)))

    def test_unmatched_count_positive(self):
        with pytest.raises(ValueError):
            RecordTable("x", (), (), ((0, 0),))

    def test_with_next_bounds_checked(self):
        with pytest.raises(ValueError):
            RecordTable("x", (ReceiveEvent(0, 1),), (5,), ())


class TestRoundTrip:
    def test_to_outcomes_reproduces_structure(self, paper_outcomes):
        tables = build_tables(paper_outcomes)
        table = tables["A"][0]
        rebuilt = list(table.to_outcomes())
        orig_matched = [o.matched for o in paper_outcomes]
        new_matched = [o.matched for o in rebuilt]
        assert orig_matched == new_matched

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 100)),
                max_size=3,
            ),
            max_size=30,
        )
    )
    def test_outcome_roundtrip_arbitrary_streams(self, spec):
        # make (rank, clock) identifiers unique per matched event
        seen = set()
        cleaned = []
        for group in spec:
            g = []
            for r, c in group:
                while (r, c) in seen:
                    c += 101
                seen.add((r, c))
                g.append((r, c))
            cleaned.append(g)
        outs = outcome_stream(cleaned)
        tables = build_tables(outs)
        if not outs:
            assert tables == {}
            return
        rebuilt = [o for t in tables["cs"] for o in t.to_outcomes()]
        assert [o.matched for o in rebuilt] == [o.matched for o in outs]
        assert [o.flag for o in rebuilt] == [o.flag for o in outs]


class TestChunking:
    def test_chunks_split_at_boundary(self):
        outs = outcome_stream([[(0, i)] for i in range(10)])
        tables = build_tables(outs, chunk_events=4)["cs"]
        assert [t.num_events for t in tables] == [4, 4, 2]

    def test_chunking_never_splits_groups(self):
        outs = outcome_stream([[(0, 1), (1, 2), (2, 3)], [(0, 4), (1, 5)]])
        tables = build_tables(outs, chunk_events=2)["cs"]
        # first chunk takes the whole 3-event group
        assert tables[0].num_events == 3
        assert tables[0].with_next_indices == (0, 1)

    def test_multiple_callsites_tracked_separately(self):
        outs = [
            MFOutcome("a", MFKind.TEST, (ReceiveEvent(0, 1),)),
            MFOutcome("b", MFKind.TEST, (ReceiveEvent(0, 2),)),
            MFOutcome("a", MFKind.TEST, (ReceiveEvent(0, 3),)),
        ]
        tables = build_tables(outs)
        assert len(tables["a"][0].matched) == 2
        assert len(tables["b"][0].matched) == 1


class TestWithNextGroups:
    def test_groups_partition_events(self, paper_outcomes):
        table = build_tables(paper_outcomes)["A"][0]
        groups = table.with_next_groups()
        covered = [i for s, e in groups for i in range(s, e + 1)]
        assert covered == list(range(table.num_events))
        assert (1, 2) in groups  # the Figure 4 pair
