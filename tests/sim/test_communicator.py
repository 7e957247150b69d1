"""MPI-level matching semantics (posted/unexpected queues, FIFO)."""

import pytest

from repro.errors import CommunicatorError
from repro.sim.communicator import MailBox
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState


def msg(src=1, tag=5, clock=0, seq=0):
    return Message(src=src, dst=0, tag=tag, payload=None, clock=clock, seq=seq)


def recv(source=ANY_SOURCE, tag=ANY_TAG):
    return Request(owner=0, is_recv=True, source=source, tag=tag)


class TestPostedMatching:
    def test_arrival_matches_first_posted_in_post_order(self):
        box = MailBox(0)
        r1, r2 = recv(), recv()
        box.post_recv(r1)
        box.post_recv(r2)
        box.deliver(msg(seq=0), 1.0)
        assert r1.completed and not r2.completed

    def test_arrival_skips_incompatible_receives(self):
        box = MailBox(0)
        r1, r2 = recv(source=3), recv(source=1)
        box.post_recv(r1)
        box.post_recv(r2)
        box.deliver(msg(src=1), 1.0)
        assert r2.completed and not r1.completed

    def test_unmatched_arrival_goes_unexpected(self):
        box = MailBox(0)
        box.deliver(msg(), 1.0)
        assert box.unexpected


class TestUnexpectedMatching:
    def test_posting_takes_earliest_matching_unexpected(self):
        box = MailBox(0)
        box.deliver(msg(clock=1, seq=0), 1.0)
        box.deliver(msg(clock=2, seq=1), 2.0)
        r = recv()
        box.post_recv(r)
        assert r.completed and r.message.clock == 1
        assert len(box.unexpected) == 1

    def test_posting_with_filter_skips_nonmatching(self):
        box = MailBox(0)
        box.deliver(msg(src=2, seq=0), 1.0)
        r = recv(source=1)
        box.post_recv(r)
        assert not r.completed
        assert box.posted == [r]


class TestFIFO:
    def test_out_of_order_seq_rejected(self):
        box = MailBox(0)
        box.deliver(msg(seq=1), 1.0)
        with pytest.raises(CommunicatorError):
            box.deliver(msg(seq=0), 2.0)

    def test_per_sender_sequences_independent(self):
        box = MailBox(0)
        box.deliver(msg(src=1, seq=0), 1.0)
        box.deliver(msg(src=2, seq=0), 2.0)  # fine: different channel


class TestLifecycle:
    def test_reposting_used_request_rejected(self):
        box = MailBox(0)
        r = recv()
        box.post_recv(r)
        box.deliver(msg(), 1.0)
        with pytest.raises(CommunicatorError):
            box.post_recv(r)

    def test_post_send_request_rejected(self):
        with pytest.raises(CommunicatorError):
            MailBox(0).post_recv(Request(owner=0, is_recv=False))

    def test_cancel_removes_pending(self):
        box = MailBox(0)
        r = recv()
        box.post_recv(r)
        box.cancel(r)
        assert r.state is RequestState.INACTIVE
        box.deliver(msg(), 1.0)
        assert box.unexpected  # nothing matched

    def test_completed_undelivered_sorts_by_completion(self):
        box = MailBox(0)
        rs = [recv() for _ in range(3)]
        for r in rs:
            box.post_recv(r)
        for i in range(3):
            box.deliver(msg(clock=i, seq=i), float(i))
        ready, sends = MailBox.deliverable(list(reversed(rs)))
        assert [r.message.clock for r in ready] == [0, 1, 2]
        assert sends == []

    def test_mark_delivered_requires_completed(self):
        with pytest.raises(CommunicatorError):
            MailBox.mark_delivered([recv()])

    def test_completion_log_records_order(self):
        box = MailBox(0)
        r1, r2 = recv(), recv()
        box.post_recv(r1)
        box.post_recv(r2)
        box.deliver(msg(seq=0), 1.0)
        box.deliver(msg(seq=1), 2.0)
        assert box.completion_log == [r1, r2]

    def test_mailbox_without_a_log_matches_the_same(self):
        """With its log off (record and baseline runs: no controller reads
        it) a mailbox makes the same matches, leaves the same states and
        completes in the same order; it only keeps nothing."""

        def drive(box):
            rs = [recv(source=2), recv(), recv(tag=7), recv(source=1, tag=5)]
            box.deliver(msg(src=1, clock=0, seq=0), 1.0)  # unexpected
            box.deliver(msg(src=2, tag=7, clock=4, seq=0), 2.0)  # unexpected
            box.post_recv(rs[0])  # takes src 2's message
            box.post_recv(rs[1])  # takes src 1's message
            box.post_recv(rs[2])
            box.post_recv(rs[3])
            box.deliver(msg(src=1, clock=2, seq=1), 3.0)  # matches rs[3]
            box.deliver(msg(src=3, tag=7, clock=6, seq=0), 4.0)  # matches rs[2]
            box.deliver(msg(src=3, clock=8, seq=1), 5.0)  # unexpected
            ready, _ = MailBox.deliverable(rs)
            return (
                [(r.state, r.message.src, r.message.clock) for r in rs],
                [rs.index(r) for r in ready],
                [(m.src, m.clock) for m in box.unexpected],
            )

        logged, unlogged = MailBox(0), MailBox(0, completion_log=None)
        assert drive(unlogged) == drive(logged)
        assert len(logged.completion_log) == 4
        assert unlogged.completion_log is None
