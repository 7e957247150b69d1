"""Epoch lines (Section 3.5)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.epoch import EpochLine
from repro.core.events import ReceiveEvent


class TestConstruction:
    def test_max_clock_per_sender(self):
        line = EpochLine.from_events(
            [ReceiveEvent(0, 18), ReceiveEvent(1, 19), ReceiveEvent(2, 8), ReceiveEvent(0, 2)]
        )
        assert line.max_clock_by_rank == {0: 18, 1: 19, 2: 8}

    def test_figure8_value_count(self):
        """Three senders -> six stored values in the Figure 8 epoch table."""
        line = EpochLine.from_events(
            [ReceiveEvent(0, 18), ReceiveEvent(1, 19), ReceiveEvent(2, 8)]
        )
        assert line.value_count() == 6

    def test_empty(self):
        line = EpochLine.from_events([])
        assert line.num_ranks == 0


class TestMembership:
    def test_below_line_contained(self):
        line = EpochLine({0: 18, 2: 8})
        assert line.contains(ReceiveEvent(0, 18))
        assert line.contains(ReceiveEvent(2, 5))

    def test_runs_off_the_line(self):
        """The paper's example: (rank 2, clock 17) exceeds ceiling 8."""
        line = EpochLine({0: 18, 1: 19, 2: 8})
        assert not line.contains(ReceiveEvent(2, 17))

    def test_unknown_sender_not_contained(self):
        assert not EpochLine({0: 5}).contains(ReceiveEvent(9, 1))

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 100)), min_size=1, max_size=40
        )
    )
    def test_every_source_event_is_contained(self, pairs):
        events = [ReceiveEvent(r, c) for r, c in pairs]
        line = EpochLine.from_events(events)
        assert all(line.contains(ev) for ev in events)


class TestMergeAndSerialization:
    def test_sorted_pairs_deterministic(self):
        line = EpochLine({3: 1, 1: 2, 2: 3})
        assert line.as_sorted_pairs() == [(1, 2), (2, 3), (3, 1)]
