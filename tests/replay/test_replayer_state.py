"""One callsite's replay: schedule, per-sender queues, quotas, horizon.

The assist-chunk path hands recorded messages out of per-sender queues
inside ``ReplayController.decide``. The first half of this file checks it
call by call against the callsite decoder it replaced (``pool`` +
``peek`` + ``consume_group``, kept verbatim in ``tests/replay/oracles.py``):
hypothesis draws recorded streams — groups, unmatched runs including the
trailing one, senders observed out of clock order inside a chunk and
across a flush (boundary exceptions), two or more chunks so quota overflow
feeds the next activation — and an interleaving of arrivals and calls, and
both sides must deliver the same message objects, block at the same
positions and raise the same typed errors. Each side reads the record its
own encoder wrote: the controller the chunks of ``encode_chunk_sequence``
(an assist chunk's diff against its sender column, quota from that column),
the old decoder those of the parent's clock-order encoder kept in
``tests/core/oracles.py``. The LMC path runs through the same harness, which
pins it unchanged. The rest are example tests of the state itself.
"""

import dataclasses
import gc
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.record_table import RecordTable
from repro.errors import RecordExhausted, RecordFormatError, ReplayDivergence
from repro.replay.replayer import (
    CallsiteReplayState,
    DeliveryMode,
    groups_from_with_next,
)
from repro.sim.datatypes import Message

from tests.replay.driving import (
    BLOCKED,
    CALLSITE,
    UNMATCHED,
    CallsiteDriver,
    events_of,
    messages_for,
    recorded_streams,
)
from tests.core.oracles import encode_chunk_sequence_oracle
from tests.core.test_pipeline import build_tables, encode_chunk, encode_chunk_sequence
from tests.replay.oracles import CallsiteReplayStateOracle, _Peek


def msg_for(ev: ReceiveEvent) -> Message:
    return Message(src=ev.rank, dst=0, tag=1, payload=None, clock=ev.clock, seq=0)


def chunk_for(observed, with_next=(), unmatched=(), assist=True):
    table = RecordTable(CALLSITE, tuple(observed), tuple(with_next), tuple(unmatched))
    return encode_chunk(table, replay_assist=assist)


def state_for(observed, with_next=(), unmatched=(), assist=True, mode=DeliveryMode.PROGRESSIVE):
    chunk = chunk_for(observed, with_next, unmatched, assist)
    return CallsiteReplayState(0, CALLSITE, deque([chunk]), mode=mode)


def driver_for(observed, with_next=(), unmatched=(), assist=True, **kw):
    return CallsiteDriver([chunk_for(observed, with_next, unmatched, assist)], **kw)


# -- differential: the script path against the decoder it replaced -----------


def oracle_call(oracle: CallsiteReplayStateOracle, batch):
    """One MF call on the old decoder: pool ``batch``, then peek + consume."""
    for msg in batch:
        oracle.feed(ReceiveEvent(msg.src, msg.clock), msg)
    kind, events = oracle.peek()
    if kind is _Peek.EXHAUSTED:
        raise RecordExhausted(0, CALLSITE)
    if kind is _Peek.BLOCKED:
        return BLOCKED
    if kind is _Peek.UNMATCHED:
        oracle.consume_unmatched()
        return UNMATCHED
    return tuple(oracle.consume_group(events))


def typed(fn):
    """``fn()``'s result, or the type of the replay error it raised."""
    try:
        return fn()
    except (ReplayDivergence, RecordExhausted, RecordFormatError) as exc:
        return type(exc)


def assert_same_calls(chunks, arrival, calls_before, assist, old_chunks=None):
    """Drive the controller (over ``chunks``) and the oracle (over
    ``old_chunks``: the same tables through the parent's encoder) through
    the same arrivals and calls; every call must come back the same on
    both sides."""
    built = typed(lambda: CallsiteDriver(chunks))
    oracle = typed(
        lambda: CallsiteReplayStateOracle(0, CALLSITE, deque(old_chunks or chunks))
    )
    if isinstance(built, type) or isinstance(oracle, type):
        assert built is oracle  # the first chunk is refused by both
        return
    driver, state = built, built.state

    def one_call():
        batch = driver.absorb_order()
        old = typed(lambda: oracle_call(oracle, batch))
        new = typed(driver.call)
        if isinstance(old, tuple):
            # the very message objects, in delivery order
            assert isinstance(new, tuple) and list(map(id, new)) == list(map(id, old))
        else:
            assert new is old or new == old
        if isinstance(old, type):
            return old
        assert state.cursor == oracle.cursor
        assert state.delivered_events == oracle.delivered_events
        assert state.pooled_count == len(oracle.pool) == len(state.pooled_clocks())
        assert list(state.overflow) == [msg for _event, msg in oracle.overflow]
        if old is BLOCKED and assist:
            assert state.ready == oracle.ready  # the position it blocked on
        return old

    pending = deque(arrival)
    for calls in calls_before:
        for _ in range(calls):
            if isinstance(one_call(), type):
                return
        driver.arrive(pending.popleft())
    for _ in range(4 * len(arrival) + 16):
        got = one_call()
        if isinstance(got, type) or got is BLOCKED:
            return  # an error, or stuck for good on a damaged stream
    raise AssertionError("script did not finish")


@st.composite
def scripts(draw):
    outcomes, arrival = draw(recorded_streams())
    chunk_events = draw(st.integers(2, 12))
    calls_before = draw(
        st.lists(st.integers(0, 3), min_size=len(arrival), max_size=len(arrival))
    )
    return outcomes, arrival, chunk_events, calls_before


class TestAgainstTheOldDecoder:
    @given(scripts(), st.booleans())
    @settings(deadline=None)  # example count: the profile's ("ci": 400)
    def test_same_deliveries_and_blocked_positions(self, script, assist):
        outcomes, arrival, chunk_events, calls_before = script
        tables = build_tables(outcomes, chunk_events=chunk_events)[CALLSITE]
        chunks = encode_chunk_sequence(tables, replay_assist=assist)
        old = encode_chunk_sequence_oracle(tables, replay_assist=assist)
        if not assist:
            assert chunks == old  # the paper-exact layout is untouched
        assert_same_calls(chunks, messages_for(arrival), calls_before, assist, old)

    @given(scripts(), st.booleans(), st.data())
    @settings(deadline=None)  # example count: the profile's ("ci": 400)
    def test_same_typed_errors_on_damaged_streams(self, script, assist, data):
        """A clock regression or an epoch breach among the arrivals, or a
        chunk whose columns disagree with its event count: both decoders
        refuse at the same call with the same error type."""
        outcomes, arrival, chunk_events, calls_before = script
        tables = build_tables(outcomes, chunk_events=chunk_events)[CALLSITE]
        chunks = list(encode_chunk_sequence(tables, replay_assist=assist))
        old = list(encode_chunk_sequence_oracle(tables, replay_assist=assist))
        messages = messages_for(arrival)
        damage = data.draw(st.sampled_from(["regress", "breach", "assist", "runs"]))
        if damage == "regress" and not assist:
            # the LMC path identifies an arrival by its clock: a lowered
            # clock that slips past the membership checks is a wrong
            # identity, which neither decoder answers with a typed error
            damage = "breach"
        if damage in ("regress", "breach"):
            victim = messages[data.draw(st.integers(0, len(messages) - 1))]
            victim.clock = 0 if damage == "regress" else victim.clock + 10**6
        else:
            k = data.draw(st.integers(0, len(chunks) - 1))
            chunk = chunks[k]
            if damage == "assist" and assist:
                changes = {"sender_sequence": tuple(chunk.sender_sequence) + (0,)}
            else:
                changes = {"unmatched_runs": ((chunk.num_events + 1, 1),)}
            chunks[k] = dataclasses.replace(chunk, **changes)
            old[k] = dataclasses.replace(old[k], **changes)
        assert_same_calls(chunks, messages, calls_before, assist, old)

    def test_two_chunks_trailing_run_and_boundary_exception(self):
        """The features the properties above rely on drawing, once by hand:
        an inversion across a chunk boundary (a boundary exception, and an
        arrival that must overflow into the next activation) and a trailing
        unmatched run."""
        a, b, c = ReceiveEvent(0, 5), ReceiveEvent(1, 6), ReceiveEvent(0, 2)
        test = lambda *matched: MFOutcome(CALLSITE, MFKind.TEST, matched)
        outcomes = [test(a), test(b), test(), test(), test(c), test()]
        tables = build_tables(outcomes, chunk_events=2)[CALLSITE]
        chunks = encode_chunk_sequence(tables, replay_assist=True)
        # (0, 2) is delivered after (0, 5): below chunk 1's ceiling for rank 0
        assert [ch.boundary_exceptions for ch in chunks] == [(), ((0, 2),)]
        assert chunks[1].unmatched_runs == ((0, 2), (1, 1))
        messages = messages_for([c, a, b])  # the exception arrives first
        old = encode_chunk_sequence_oracle(tables, replay_assist=True)
        assert_same_calls(chunks, messages, [0, 1, 2], assist=True, old_chunks=old)
        driver = CallsiteDriver(chunks)
        driver.arrive(messages[0])
        assert driver.call() is BLOCKED
        assert list(driver.state.overflow) == [messages[0]]  # not chunk 1's
        emitted = driver.drain(messages[1:])
        assert [events_of(g) for g in emitted] == [(a,), (b,), (), (), (c,), ()]


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
        driver = driver_for(observed)
        # replay arrivals in clock order per sender, interleaved differently
        arrival = messages_for([ReceiveEvent(1, 4), ReceiveEvent(0, 2), ReceiveEvent(1, 9)])
        for msg in arrival:
            driver.arrive(msg)
        by_event = {ReceiveEvent(m.src, m.clock): m for m in arrival}
        for expected in observed:
            (delivered,) = driver.call()
            assert delivered is by_event[expected]
        with pytest.raises(RecordExhausted):
            driver.call()

    def test_blocked_until_kth_arrival(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(1, 4)]
        driver = driver_for(observed)
        first, second = messages_for([ReceiveEvent(1, 4), ReceiveEvent(1, 9)])
        driver.arrive(first)
        assert driver.call() is BLOCKED  # needs sender 1's 2nd arrival
        driver.arrive(second)
        assert driver.call() == (second,)

    def test_blocked_check_resumes_where_it_stopped(self):
        observed = [ReceiveEvent(0, 1), ReceiveEvent(1, 2), ReceiveEvent(2, 3)]
        driver = driver_for(observed, with_next=(0, 1))  # one group of three
        messages = messages_for(observed)
        assert driver.call() is BLOCKED and driver.state.ready == 0
        for msg in messages[:2]:
            driver.arrive(msg)
        assert driver.call() is BLOCKED
        assert driver.state.ready == 2  # positions 0 and 1 are not looked at again
        driver.arrive(messages[2])
        assert driver.call() == tuple(messages)
        with pytest.raises(RecordExhausted):
            driver.call()

    def test_schedule_is_laid_out_at_activation(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        st = state_for(observed, with_next=(1,), unmatched=((0, 2), (3, 1)))
        assert list(st.senders) == [1, 0, 1]
        assert st.occurrence == [2, 1, 1]
        assert st.group_end == [0, 2, 2]
        assert st.unmatched_left == [2, 0, 0, 1]
        assert st.num_events == 3

    def test_activation_decodes_the_permutation_once(self):
        observed = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        chunk = encode_chunk(RecordTable("cs", tuple(observed), (), ()), True)
        # the occurrence count is handed the decoded order: its own decode
        # must not run
        with mock.patch(
            "repro.core.pipeline.decode_permutation",
            side_effect=AssertionError("decoded twice"),
        ):
            st = CallsiteReplayState(0, "cs", deque([chunk]))
        # against the sender column [1, 0, 1]: sender 1's receives swapped
        assert st.order == [2, 1, 0] and st.occurrence == [2, 1, 1]

    def test_only_the_structure_the_path_reads_is_maintained(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        with_assist, without = state_for(observed), state_for(observed, assist=False)
        msg = msg_for(observed[0])
        for st in (with_assist, without):
            st.feed(msg)
            # checks and the pooled figure: both paths
            assert st.pooled_count == 1 and st.quota[0] == 0
            assert st.pooled_clocks() == [2]
        # the message itself is queued, under its sender or in reference order
        assert with_assist.arrived_per_sender == {0: [msg]}
        assert not with_assist.arrived_sorted
        assert without.arrived_sorted == [((2, 0), msg)]
        assert not without.arrived_per_sender

    def test_a_delivered_message_is_let_go_when_its_call_returns(self):
        """The queues index by arrival count, so a delivered entry cannot
        be popped — it is overwritten. Nothing of the controller may still
        refer to a message once the call that delivered it has returned."""
        observed = [ReceiveEvent(1, 9), ReceiveEvent(0, 2), ReceiveEvent(1, 4)]
        for assist in (True, False):
            driver = driver_for(observed, assist=assist)
            arrival = messages_for([ReceiveEvent(1, 4), ReceiveEvent(0, 2), ReceiveEvent(1, 9)])
            for msg in arrival:
                driver.arrive(msg)
            (delivered,) = driver.call()
            assert delivered.clock == 9
            state = driver.state
            assert state.pooled_count == 2 and state.cursor == 1

            def holders(obj, seen):
                """Containers reachable from the controller that hold ``obj``."""
                return [
                    r for r in gc.get_referrers(obj)
                    if id(r) in seen and isinstance(r, (list, dict, set, deque, tuple))
                ]

            reachable = {id(driver.controller)}
            frontier = [driver.controller]
            while frontier:
                for ref in gc.get_referents(frontier.pop()):
                    if id(ref) not in reachable and not isinstance(ref, type):
                        reachable.add(id(ref))
                        frontier.append(ref)
            assert id(arrival[0]) in reachable  # still queued: (1, 4)
            assert id(delivered) not in reachable, holders(delivered, reachable)


class TestParkedFilters:
    """A parked call is re-armed by every arrival; its filter set is built
    once for as long as it stays parked, and not kept a call longer."""

    def test_filters_are_built_once_while_parked_and_dropped_on_return(self):
        observed = [ReceiveEvent(0, 1), ReceiveEvent(1, 2), ReceiveEvent(2, 3)]
        driver = driver_for(observed, with_next=(0, 1))
        state = driver.state
        messages = messages_for(observed)
        assert driver.call() is BLOCKED
        parked = driver.proc.pending_call
        # nothing had arrived: no filter set was needed, none was built
        assert state.parked_call is parked and state.parked_filters is None
        driver.arrive(messages[0])
        assert driver.call() is BLOCKED
        filters = state.parked_filters
        assert filters == {(-1, -1)}
        driver.arrive(messages[1])
        assert driver.call() is BLOCKED
        assert state.parked_filters is filters  # the same set object
        driver.arrive(messages[2])
        assert driver.call() == tuple(messages)
        assert state.parked_call is None and state.parked_filters is None


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
        driver = driver_for(observed, unmatched=((0, 2), (1, 1)))
        (msg,) = messages_for(observed)
        driver.arrive(msg)
        assert driver.state.status() == "unmatched"
        assert driver.call() is UNMATCHED
        assert driver.call() is UNMATCHED
        assert driver.state.status() == "group"
        assert driver.call() == (msg,)
        assert driver.call() is UNMATCHED  # trailing run
        assert driver.state.status() == "exhausted"
        with pytest.raises(RecordExhausted):
            driver.call()

    def test_wait_where_the_record_has_an_unmatched_test_diverges(self):
        driver = driver_for([ReceiveEvent(0, 1)], unmatched=((0, 1),))
        with pytest.raises(ReplayDivergence, match="expects an unmatched test"):
            driver.call(MFKind.WAITSOME)

    def test_group_for_a_single_completion_call_diverges(self):
        observed = [ReceiveEvent(0, 1), ReceiveEvent(1, 2)]
        driver = driver_for(observed, with_next=(0,))
        for msg in messages_for(observed):
            driver.arrive(msg)
        with pytest.raises(ReplayDivergence, match="single-completion"):
            driver.call(MFKind.TESTANY)


class TestQuotaAndEpoch:
    def test_overflow_beyond_quota_kept_for_next_chunk(self):
        first, later = ReceiveEvent(0, 1), ReceiveEvent(0, 5)
        driver = CallsiteDriver([chunk_for([first]), chunk_for([later])])
        messages = messages_for([first, later])
        for msg in messages:
            driver.arrive(msg)
        assert driver.call() == (messages[0],)
        assert list(driver.state.overflow) == [messages[1]]  # next chunk's
        # the next call advances the chunk, which re-feeds the overflow
        assert driver.call() == (messages[1],)
        assert not driver.state.overflow

    def test_epoch_violation_raises(self):
        st = state_for([ReceiveEvent(0, 3)])
        with pytest.raises(ReplayDivergence, match="epoch line"):
            st.feed(msg_for(ReceiveEvent(0, 9)))

    def test_per_sender_clock_regression_raises(self):
        st = state_for([ReceiveEvent(0, 3), ReceiveEvent(0, 5)])
        st.feed(msg_for(ReceiveEvent(0, 5)))
        with pytest.raises(ReplayDivergence, match="clock order violated"):
            st.feed(msg_for(ReceiveEvent(0, 3)))


class TestHorizonNoAssist:
    def test_horizon_uses_min_clock_hints(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        st = state_for(observed, assist=False)
        # nothing arrived: horizon = min of first-clock hints
        assert st.certainty_horizon() == (2, 0)

    def test_certain_prefix_grows_with_floors(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        driver = driver_for(observed, assist=False)
        (msg,) = messages_for(observed[:1])
        driver.arrive(msg)
        # sender 1's hint (10) exceeds (2,0): the first event is certain
        assert driver.call() == (msg,)

    def test_barrier_mode_waits_for_everything(self):
        observed = [ReceiveEvent(0, 2), ReceiveEvent(1, 10)]
        driver = driver_for(observed, assist=False, mode=DeliveryMode.BARRIER)
        first, second = messages_for(observed)
        driver.arrive(first)
        assert driver.call() is BLOCKED
        driver.arrive(second)
        assert driver.call() == (first,)

    def test_exhausted_when_no_chunks(self):
        st = CallsiteReplayState(0, "cs", deque([]))
        assert st.status() == "exhausted"
        st.feed(msg_for(ReceiveEvent(0, 1)))  # nothing is a member any more
        assert len(st.overflow) == 1 and st.pooled_count == 0
