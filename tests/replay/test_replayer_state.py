"""CallsiteReplayState unit behaviour: quotas, horizon, assist, scripts."""

import dataclasses
from collections import deque
from unittest import mock

import pytest

from repro.core.events import ReceiveEvent
from repro.core.pipeline import encode_chunk
from repro.core.record_table import RecordTable
from repro.errors import RecordFormatError, ReplayDivergence
from repro.replay.replayer import (
    CallsiteReplayState,
    DeliveryMode,
    _Peek,
    groups_from_with_next,
)
from repro.sim.datatypes import Message


def msg_for(ev: ReceiveEvent) -> Message:
    return Message(src=ev.rank, dst=0, tag=1, payload=None, clock=ev.clock, seq=0)


def state_for(observed, with_next=(), unmatched=(), assist=True, mode=DeliveryMode.PROGRESSIVE):
    table = RecordTable("cs", tuple(observed), tuple(with_next), tuple(unmatched))
    chunk = encode_chunk(table, replay_assist=assist)
    return CallsiteReplayState(0, "cs", deque([chunk]), mode=mode)


class TestGroups:
    def test_groups_from_with_next(self):
        assert groups_from_with_next((1,), 4) == [0, 2, 2, 3]

    def test_chained_group(self):
        assert groups_from_with_next((0, 1), 3) == [2, 2, 2]

    def test_empty(self):
        assert groups_from_with_next((), 0) == []


class TestAssistDelivery:
    def test_exact_order_reproduced(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        st = state_for(observed)
        # replay arrivals in clock order per sender, interleaved differently
        for ev in [ReceiveEvent(1, 4), ReceiveEvent(0, 2), ReceiveEvent(1, 9)]:
            st.feed(ev, msg_for(ev))
        for expected in observed:
            kind, events = st.peek()
            assert kind is _Peek.GROUP
            assert events == [expected]
            st.consume_group(events)
        assert st.peek()[0] is _Peek.EXHAUSTED

    def test_blocked_until_kth_arrival(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(1, 4)]
        st = state_for(observed)
        st.feed(ReceiveEvent(1, 4), msg_for(ReceiveEvent(1, 4)))
        assert st.peek()[0] is _Peek.BLOCKED  # needs sender 1's 2nd arrival
        st.feed(ReceiveEvent(1, 9), msg_for(ReceiveEvent(1, 9)))
        kind, events = st.peek()
        assert kind is _Peek.GROUP and events[0].clock == 9


    def test_blocked_check_resumes_where_it_stopped(self):
        observed = [ReceiveEvent(0, 1), ReceiveEvent(1, 2), ReceiveEvent(2, 3)]
        st = state_for(observed, with_next=(0, 1))  # one group of three
        assert st.peek()[0] is _Peek.BLOCKED and st.ready == 0
        for ev in observed[:2]:
            st.feed(ev, msg_for(ev))
        assert st.peek()[0] is _Peek.BLOCKED
        assert st.ready == 2  # positions 0 and 1 are not looked at again
        st.feed(observed[2], msg_for(observed[2]))
        assert st.peek() == (_Peek.GROUP, observed)
        st.consume_group(observed)
        assert st.peek()[0] is _Peek.EXHAUSTED

    def test_schedule_is_laid_out_at_activation(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        st = state_for(observed, with_next=(1,), unmatched=((0, 2), (3, 1)))
        assert list(st.senders) == [1, 0, 1]
        assert st.occurrence == [2, 1, 1]
        assert st.group_end == [0, 2, 2]
        assert st.unmatched_left == [2, 0, 0, 1]

    def test_activation_decodes_the_permutation_once(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        chunk = encode_chunk(RecordTable("cs", tuple(observed), (), ()), True)
        # the occurrence ranking is handed the decoded order: its own
        # decode (looked up in the permutation module) must not run
        with mock.patch(
            "repro.core.permutation.decode_permutation",
            side_effect=AssertionError("decoded twice"),
        ):
            st = CallsiteReplayState(0, "cs", deque([chunk]))
        assert st.order == [2, 0, 1] and st.occurrence == [2, 1, 1]

    def test_only_the_structure_the_path_reads_is_maintained(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        with_assist, without = state_for(observed), state_for(observed, assist=False)
        for st in (with_assist, without):
            st.feed(observed[0], msg_for(observed[0]))
            assert st.pool and st.quota[0] == 0  # checks and pool: both paths
        assert with_assist.arrived_per_sender and not with_assist.arrived_sorted
        assert without.arrived_sorted and not without.arrived_per_sender


class TestMalformedChunks:
    """Positions index flat lists now, so a chunk whose columns disagree
    with its event count is refused at activation with a typed error."""

    def chunk(self, **changes):
        observed = (ReceiveEvent(0, 1), ReceiveEvent(1, 2))
        chunk = encode_chunk(RecordTable("cs", observed, (), ((0, 1),)), True)
        return dataclasses.replace(chunk, **changes)

    def test_assist_column_of_the_wrong_length(self):
        with pytest.raises(RecordFormatError, match="assist column"):
            CallsiteReplayState(0, "cs", deque([self.chunk(sender_sequence=(0,))]))

    def test_unmatched_run_past_the_chunk(self):
        with pytest.raises(RecordFormatError, match="unmatched run"):
            CallsiteReplayState(0, "cs", deque([self.chunk(unmatched_runs=((3, 1),))]))

    def test_with_next_outside_the_chunk_is_ignored(self):
        st = CallsiteReplayState(
            0, "cs", deque([self.chunk(with_next_indices=(-1, 1, 7))])
        )
        assert st.group_end == [0, 1]


class TestUnmatchedScript:
    def test_unmatched_runs_consumed_before_groups(self):
        observed = [ReceiveEvent(0, 1)]
        st = state_for(observed, unmatched=((0, 2), (1, 1)))
        st.feed(observed[0], msg_for(observed[0]))
        assert st.peek()[0] is _Peek.UNMATCHED
        st.consume_unmatched()
        assert st.peek()[0] is _Peek.UNMATCHED
        st.consume_unmatched()
        kind, events = st.peek()
        assert kind is _Peek.GROUP
        st.consume_group(events)
        assert st.peek()[0] is _Peek.UNMATCHED  # trailing run
        st.consume_unmatched()
        assert st.peek()[0] is _Peek.EXHAUSTED


class TestQuotaAndEpoch:
    def test_overflow_beyond_quota_kept_for_next_chunk(self):
        observed = [ReceiveEvent(0, 1)]
        table1 = RecordTable("cs", tuple(observed), (), ())
        table2 = RecordTable("cs", (ReceiveEvent(0, 5),), (), ())
        st = CallsiteReplayState(
            0,
            "cs",
            deque([encode_chunk(table1, True), encode_chunk(table2, True)]),
        )
        st.feed(ReceiveEvent(0, 1), msg_for(ReceiveEvent(0, 1)))
        st.feed(ReceiveEvent(0, 5), msg_for(ReceiveEvent(0, 5)))  # next chunk
        assert len(st.overflow) == 1
        kind, events = st.peek()
        st.consume_group(events)
        kind, events = st.peek()  # advances chunk, refeeds overflow
        assert kind is _Peek.GROUP and events[0].clock == 5

    def test_epoch_violation_raises(self):
        st = state_for([ReceiveEvent(0, 3)])
        with pytest.raises(ReplayDivergence):
            st.feed(ReceiveEvent(0, 9), msg_for(ReceiveEvent(0, 9)))

    def test_per_sender_clock_regression_raises(self):
        st = state_for([ReceiveEvent(0, 3), ReceiveEvent(0, 5)])
        st.feed(ReceiveEvent(0, 5), msg_for(ReceiveEvent(0, 5)))
        with pytest.raises(ReplayDivergence):
            st.feed(ReceiveEvent(0, 3), msg_for(ReceiveEvent(0, 3)))


class TestHorizonNoAssist:
    def test_horizon_uses_min_clock_hints(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        st = state_for(observed, assist=False)
        # nothing arrived: horizon = min of first-clock hints
        assert st.certainty_horizon() == (2, 0)

    def test_certain_prefix_grows_with_floors(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        st = state_for(observed, assist=False)
        ev = ReceiveEvent(0, 2)
        st.feed(ev, msg_for(ev))
        # sender 1's hint (10) exceeds (2,0): the first event is certain
        kind, events = st.peek()
        assert kind is _Peek.GROUP and events == [ev]

    def test_barrier_mode_waits_for_everything(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        st = state_for(observed, assist=False, mode=DeliveryMode.BARRIER)
        st.feed(ReceiveEvent(0, 2), msg_for(ReceiveEvent(0, 2)))
        assert st.peek()[0] is _Peek.BLOCKED
        st.feed(ReceiveEvent(1, 10), msg_for(ReceiveEvent(1, 10)))
        assert st.peek()[0] is _Peek.GROUP

    def test_exhausted_when_no_chunks(self):
        st = CallsiteReplayState(0, "cs", deque([]))
        assert st.peek()[0] is _Peek.EXHAUSTED
