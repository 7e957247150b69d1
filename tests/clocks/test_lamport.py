"""Lamport clock rules (Definition 4) and their CDC-critical invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocks import LamportClock


def is_strictly_increasing(values) -> bool:
    seq = list(values)
    return all(a < b for a, b in zip(seq, seq[1:]))


class TestSendRule:
    def test_send_attaches_current_then_increments(self):
        c = LamportClock()
        assert c.on_send() == 0
        assert c.value == 1
        assert c.on_send() == 1
        assert c.value == 2

    def test_send_history_records_attached_values(self):
        # the history is what successive sends return: the clock keeps no list
        c = LamportClock()
        assert [c.on_send() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_next_send_does_not_mutate(self):
        c = LamportClock(7)
        assert c.peek_next_send() == 7
        assert c.value == 7


class TestReceiveRule:
    def test_receive_of_larger_clock_jumps(self):
        c = LamportClock(3)
        c.on_receive(10)
        assert c.value == 11

    def test_receive_of_smaller_clock_still_ticks(self):
        c = LamportClock(9)
        c.on_receive(2)
        assert c.value == 10

    def test_receive_of_equal_clock_ticks(self):
        c = LamportClock(5)
        c.on_receive(5)
        assert c.value == 6

    def test_negative_piggyback_rejected(self):
        with pytest.raises(ValueError):
            LamportClock().on_receive(-1)


class TestInvariants:
    @given(st.lists(st.one_of(st.none(), st.integers(0, 1000)), max_size=60))
    def test_clock_monotone_under_any_event_sequence(self, events):
        """None = send, int = receive of that piggyback: value never drops."""
        c = LamportClock()
        seen = []
        for ev in events:
            before = c.value
            if ev is None:
                c.on_send()
            else:
                c.on_receive(ev)
            assert c.value >= before
            seen.append(c.value)

    @given(st.lists(st.integers(0, 100), max_size=40))
    def test_attached_send_clocks_strictly_increase(self, receives):
        """The uniqueness of (rank, clock) identifiers rests on this."""
        c = LamportClock()
        attached = []
        for r in receives:
            attached.append(c.on_send())
            c.on_receive(r)
        attached.append(c.on_send())
        assert is_strictly_increasing(attached)

    def test_fork_is_independent(self):
        c = LamportClock(4)
        c.on_send()
        clone = c.fork()
        clone.on_send()
        assert (c.value, clone.value) == (5, 6)


class TestHelpers:
    def test_strictly_increasing_true(self):
        assert is_strictly_increasing([1, 2, 5])

    def test_strictly_increasing_equal_pair_false(self):
        assert not is_strictly_increasing([1, 2, 2])

    def test_strictly_increasing_empty_true(self):
        assert is_strictly_increasing([])
