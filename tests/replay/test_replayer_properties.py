"""Property tests: the callsite decoder is arrival-order invariant.

For any recorded stream and ANY legal replay arrival order (legal = an
interleaving that preserves each sender's clock order, as FIFO channels
guarantee), driving one callsite of a :class:`ReplayController` must emit
exactly the recorded sequence of unmatched runs and delivery groups — in
both the assist and the LMC/progressive decode modes. The streams include
what no shipped workload produces, one sender's messages observed out of
clock order (``recorded_streams``), so the non-empty-diff branch of an
assist chunk — its diff is against its own sender column — has traffic
here, and every drawn table must survive encode + reconstruct in both
table flavours and both layouts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.permutation import decode_permutation
from repro.core.pipeline import reconstruct_table
from repro.replay.replayer import DeliveryMode

from tests.core.oracles import encode_chunk_scalar
from tests.core.test_pipeline import build_tables, encode_chunk, encode_chunk_sequence

from tests.replay.driving import (
    CALLSITE,
    CallsiteDriver,
    events_of,
    messages_for,
    recorded_streams,
)


@given(recorded_streams(), st.integers(2, 12), st.booleans())
@settings(max_examples=150, deadline=None)
def test_decoder_reproduces_recorded_script(case, chunk_events, assist):
    outcomes, arrival = case
    tables = build_tables(outcomes, chunk_events=chunk_events)[CALLSITE]
    chunks = encode_chunk_sequence(tables, replay_assist=assist)
    # arrivals are let in lazily: one more whenever the call blocks
    emitted = CallsiteDriver(chunks).drain(messages_for(arrival))

    expected = [tuple(o.matched) for o in outcomes]
    # unmatched runs collapse per-boundary in the record; compare the
    # delivery groups and the unmatched counts separately
    assert [events_of(g) for g in emitted if g] == [g for g in expected if g]
    assert sum(1 for g in emitted if not g) == sum(1 for g in expected if not g)


@given(recorded_streams(), st.integers(3, 8))
@settings(max_examples=60, deadline=None)
def test_barrier_mode_also_reproduces_with_full_arrival(case, chunk_events):
    """Barrier mode needs whole chunks present; feed everything upfront."""
    outcomes, arrival = case
    tables = build_tables(outcomes, chunk_events=chunk_events)[CALLSITE]
    chunks = encode_chunk_sequence(tables, replay_assist=False)
    driver = CallsiteDriver(chunks, mode=DeliveryMode.BARRIER)
    for msg in messages_for(arrival):
        driver.arrive(msg)
    emitted = driver.drain(())
    expected = [tuple(o.matched) for o in outcomes if o.matched]
    assert [events_of(g) for g in emitted if g] == expected


@given(recorded_streams(), st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_tables_survive_encode_and_reconstruct(case, chunk_events, seed):
    """``reconstruct_table(encode(t), t.matched) == t`` for ``encode_table``
    and the scalar reference, with and without the assist column, whatever
    order the receives are handed back in."""
    outcomes, _ = case
    for table in build_tables(outcomes, chunk_events=chunk_events)[CALLSITE]:
        received = list(table.matched)
        random.Random(seed).shuffle(received)
        for encode in (encode_chunk, encode_chunk_scalar):
            for assist in (False, True):
                chunk = encode(table, replay_assist=assist)
                assert reconstruct_table(chunk, received) == table, (assist, encode)


def test_one_sender_out_of_clock_order_by_hand():
    """What the strategy is there to draw, once by hand: sender 0's clock-5
    message completes before its clock-2 one, inside one chunk, after a
    late message of sender 1. The assist chunk's diff is the within-sender
    swap alone; the paper-exact chunk's is against Definition 6's order,
    where sender 1's late message moved too."""
    observed = [ReceiveEvent(1, 7), ReceiveEvent(0, 5), ReceiveEvent(0, 2)]
    outcomes = [MFOutcome(CALLSITE, MFKind.TEST, (ev,)) for ev in observed]
    (table,) = build_tables(outcomes, chunk_events=8)[CALLSITE]
    assisted, plain = (encode_chunk(table, replay_assist=a) for a in (True, False))
    assert decode_permutation(assisted.diff) == [0, 2, 1] and assisted.diff.num_moved == 1
    assert decode_permutation(plain.diff) == [2, 1, 0] and plain.diff.num_moved == 2
    for chunk in (assisted, plain):
        assert reconstruct_table(chunk, sorted(observed, key=lambda e: e.clock)) == table
        arrival = messages_for([observed[2], observed[1], observed[0]])
        emitted = CallsiteDriver([chunk]).drain(arrival)
        assert [events_of(g) for g in emitted] == [(ev,) for ev in observed]
