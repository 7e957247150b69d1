"""End to end: one sender's messages completed out of clock order (Figure 3).

No shipped workload does this — every callsite of theirs drains a sender's
messages in the order FIFO channels deliver them, which is why an assist
chunk's permutation table is empty on all of them (DESIGN.md §5.9). Here
the application asks for it: each sender sends a tag-1 then a tag-2
message per round; the receiver posts two receives per sender (the first
posted matches the tag-1 message: MPI does not overtake) and, at *one*
callsite, waits for the second one first. Every pair is a within-sender
inversion: inside a chunk it is a row of the diff against the sender
column, across a flush it is a boundary exception. Which sender's pair
completes first is left to the network (``Waitany``), so the record
differs from seed to seed and replay has work to do.

The receives take any tag. The replayer attributes arrivals to a callsite
by the current call's filters and needs each sender's messages in clock
order there (DESIGN.md §5.5), so one sender's tags cannot be split over
calls with different tag filters: waiting on a tag-2 receive alone, then on
a tag-1 receive, is refused with "per-sender clock order violated" — by
this commit and by its parent alike.
"""

import pytest

from repro.core.permutation import decode_permutation
from repro.replay import RecordSession, ReplaySession, assert_replay_matches
from repro.replay.durable_store import load_archive

NPROCS = 3
ROUNDS = 6
CALLSITE = "swap"


def program(ctx):
    senders = range(1, NPROCS)
    if ctx.rank == 0:
        received = []
        for _ in range(ROUNDS):
            first = {s: ctx.irecv(source=s) for s in senders}
            second = {s: ctx.irecv(source=s) for s in senders}
            waiting = list(senders)
            while waiting:
                res = yield ctx.waitany([second[s] for s in waiting], callsite=CALLSITE)
                received.append((res.message.src, res.message.tag, res.message.payload))
                s = waiting.pop(res.indices[0])
                res = yield ctx.wait(first[s], callsite=CALLSITE)  # the earlier message, later
                received.append((res.message.src, res.message.tag, res.message.payload))
        return received
    for k in range(ROUNDS):
        yield ctx.compute((ctx.rank + k) % 3 * 1e-6)
        ctx.isend(0, ("first", k), tag=1)
        ctx.isend(0, ("second", k), tag=2)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("swap") / "rec")
    result = RecordSession(
        program, nprocs=NPROCS, network_seed=3, chunk_events=5,
        store_dir=directory, store_fsync=False,
    ).run()
    return directory, result


def test_the_record_holds_within_sender_moves(recorded):
    directory, result = recorded
    chunks = result.archive.chunks(0)
    assert load_archive(directory)[0].chunks(0) == chunks
    assert sum(c.num_events for c in chunks) == 2 * ROUNDS * (NPROCS - 1)
    moved = [c for c in chunks if c.diff.num_moved]
    assert moved and any(c.boundary_exceptions for c in chunks)
    for chunk in moved:
        # a diff against the sender column keeps every event on its sender
        senders = chunk.sender_sequence
        order = decode_permutation(chunk.diff)
        assert [senders[q] for q in order] == list(senders)
    # the receiver saw every pair second-then-first
    seen = result.app_results[0]
    assert [tag for _, tag, _ in seen] == [2, 1] * (ROUNDS * (NPROCS - 1))
    assert all(a[0] == b[0] and a[2][1] == b[2][1] for a, b in zip(seen[::2], seen[1::2]))


@pytest.mark.parametrize("network_seed", [11, 12, 13])
def test_replay_reproduces_it_under_any_network(recorded, network_seed):
    directory, result = recorded
    replay = ReplaySession(program, directory, network_seed=network_seed).run()
    assert_replay_matches(result, replay)


def test_other_networks_record_other_orders(recorded):
    """The non-determinism guard: the replays above had something to force."""
    _, result = recorded
    others = [
        RecordSession(program, nprocs=NPROCS, network_seed=s, chunk_events=5).run()
        for s in (11, 12, 13)
    ]
    assert any(o.outcomes[0] != result.outcomes[0] for o in others)
