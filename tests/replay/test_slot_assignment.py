"""Slot assignment: the first-descent rewrite equals the backtracking oracle.

``assign_slots`` takes the greedy first descent of the old search directly
and enters the backtracker only on a dead end. The property below drives
it against the old function (kept verbatim in ``tests/replay/oracles.py``)
over random filter mixes — exact, source-only, tag-only and wildcard
slots, open (COMPLETED / PENDING) and closed (DELIVERED / INACTIVE) — and
random message groups, and demands the *identical* slot list (same request
objects, same order) or the same ``None``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import replayer
from repro.replay.replayer import assign_slots
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState

from tests.replay.oracles import assign_slots_oracle

SOURCES = (0, 1, 2)
TAGS = (5, 6)
OPEN = (RequestState.COMPLETED, RequestState.PENDING)


def recv(source=ANY_SOURCE, tag=ANY_TAG, state=RequestState.PENDING) -> Request:
    return Request(owner=9, is_recv=True, source=source, tag=tag, state=state)


def send() -> Request:
    return Request(owner=9, is_recv=False, state=RequestState.COMPLETED)


def msg(src: int, tag: int) -> Message:
    return Message(src=src, dst=9, tag=tag, payload=None, clock=1, seq=0)


requests_strategy = st.lists(
    st.one_of(
        st.builds(
            recv,
            source=st.sampled_from((ANY_SOURCE,) + SOURCES),
            tag=st.sampled_from((ANY_TAG,) + TAGS),
            state=st.sampled_from(
                OPEN + OPEN + (RequestState.DELIVERED, RequestState.INACTIVE)
            ),
        ),
        st.builds(send),
    ),
    max_size=9,
)
messages_strategy = st.lists(
    st.builds(msg, src=st.sampled_from(SOURCES), tag=st.sampled_from(TAGS)),
    min_size=1,
    max_size=6,
)


def assert_same_assignment(requests, messages):
    expected = assign_slots_oracle(requests, messages)
    got = assign_slots(requests, messages)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert [id(r) for r in got] == [id(r) for r in expected]
    return expected


@given(requests_strategy, messages_strategy)
@settings(max_examples=600, deadline=None)
def test_matches_oracle_on_random_calls(requests, messages):
    assert_same_assignment(requests, messages)


def trap(source: int) -> tuple[list[Request], list[Message]]:
    """A call on which the first descent dead-ends although a matching exists.

    Two tag-5 messages from ``source`` take the exact slot and then the
    source-only slot; the tag-6 message that follows fits *only* the
    source-only slot, so the descent is stuck until the second message
    gives it up for ``spill`` (a tag-5-only slot, useless to tag 6).
    """
    source_only = recv(source=source)
    exact = recv(source=source, tag=5)
    spill = recv(tag=5)
    messages = [msg(source, 5), msg(source, 5), msg(source, 6)]
    return [source_only, exact, spill], messages


@given(
    st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3, unique=True),
    requests_strategy,
    st.one_of(st.none(), st.randoms(use_true_random=False)),
)
@settings(max_examples=200, deadline=None)
def test_matches_oracle_on_dead_end_traps(sources, noise, rng):
    requests: list[Request] = []
    messages: list[Message] = []
    for source in sources:
        trap_requests, trap_messages = trap(source)
        requests += trap_requests
        messages += trap_messages
    if rng is None:
        # the traps as built: the descent must fail and the search must run
        with mock.patch.object(
            replayer, "_backtrack_slots", wraps=replayer._backtrack_slots
        ) as fallback:
            assert assert_same_assignment(requests, messages) is not None
        assert fallback.call_count == 1
    else:
        # shuffled, with unrelated slots mixed in: whatever happens, the
        # answer is the oracle's
        requests += noise
        rng.shuffle(requests)
        rng.shuffle(messages)
        assert_same_assignment(requests, messages)


def test_dead_end_is_recovered_by_the_search():
    (source_only, exact, tag_only), messages = trap(0)
    requests = (source_only, exact, tag_only)
    # descent: m0 -> exact, m1 -> source_only, m2 (tag 6) -> nothing;
    # search:  m0 -> exact, m1 -> tag_only,    m2 -> source_only
    assert assign_slots(requests, messages) == [exact, tag_only, source_only]
    assert assign_slots_oracle(requests, messages) == [exact, tag_only, source_only]


def test_no_matching_is_none():
    requests = (recv(source=0, tag=5), recv(tag=5), recv())
    # the tag-6 message needs the wildcard the second tag-5 message took,
    # and no reshuffle frees it: three messages, two slots that take tag 6
    messages = [msg(1, 5), msg(2, 5), msg(3, 6), msg(3, 6)]
    assert assign_slots(requests, messages) is None
    assert assign_slots_oracle(requests, messages) is None
    # a message nothing accepts
    assert assign_slots((recv(source=1),), [msg(0, 5)]) is None


def test_specific_slots_are_preferred_over_wildcards():
    wildcard, tag_only, source_only, exact = (
        recv(),
        recv(tag=5),
        recv(source=0),
        recv(source=0, tag=5),
    )
    requests = (wildcard, tag_only, source_only, exact)
    four = [msg(0, 5)] * 4
    assert assign_slots(requests, four) == [exact, source_only, tag_only, wildcard]


def test_closed_slots_and_sends_are_never_assigned():
    delivered = recv(state=RequestState.DELIVERED)
    inactive = recv(state=RequestState.INACTIVE)
    open_slot = recv(state=RequestState.COMPLETED)
    requests = (send(), delivered, inactive, open_slot)
    assert assign_slots(requests, [msg(0, 5)]) == [open_slot]
    assert assign_slots(requests, [msg(0, 5), msg(1, 5)]) is None


def test_lowest_request_index_first_within_a_class():
    first, second = recv(), recv()
    assert assign_slots((first, second), [msg(0, 5), msg(1, 6)]) == [first, second]
