"""Property tests: the callsite decoder is arrival-order invariant.

For any recorded stream and ANY legal replay arrival order (legal = an
interleaving that preserves each sender's clock order, as FIFO channels
guarantee), driving one callsite of a :class:`ReplayController` must emit
exactly the recorded sequence of unmatched runs and delivery groups — in
both the assist and the LMC/progressive decode modes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import encode_chunk_sequence
from repro.core.record_table import build_tables
from repro.replay.replayer import DeliveryMode

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
