"""Simulated-MPI datatypes."""

from repro.sim.communicator import MailBox
from repro.sim.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    Request,
    RequestState,
)


class TestRequestMatching:
    """The (source, tag) filter as the mailbox applies it, both ways: an
    arrival matching a posted request, and a posted request taking a parked
    arrival."""

    def msg(self, src=1, tag=5):
        return Message(src=src, dst=0, tag=tag, payload=None, clock=0, seq=0)

    def matches(self, req, msg):
        postable = req.is_recv and req.state is RequestState.PENDING
        box = MailBox(0)
        box.posted.append(req)  # as post_recv leaves it, whatever its state
        matched = box.deliver(msg, 1.0) is req
        assert (msg in box.unexpected) is not matched
        if postable:
            # the other direction: the message parked first, then the post
            fresh = Request(owner=0, is_recv=True, source=req.source, tag=req.tag)
            box = MailBox(0)
            box.deliver(msg, 1.0)
            box.post_recv(fresh)
            assert (fresh.state is RequestState.COMPLETED) is matched
            assert (fresh in box.posted) is not matched
        return matched

    def test_exact_match(self):
        req = Request(owner=0, is_recv=True, source=1, tag=5)
        assert self.matches(req, self.msg())
        assert req.state is RequestState.COMPLETED and req.message is not None

    def test_wrong_source_rejected(self):
        req = Request(owner=0, is_recv=True, source=2, tag=5)
        assert not self.matches(req, self.msg())

    def test_wrong_tag_rejected(self):
        req = Request(owner=0, is_recv=True, source=1, tag=6)
        assert not self.matches(req, self.msg())

    def test_wildcards_match_anything(self):
        req = Request(owner=0, is_recv=True, source=ANY_SOURCE, tag=ANY_TAG)
        assert self.matches(req, self.msg(src=3, tag=99))

    def test_non_pending_request_never_matches(self):
        req = Request(owner=0, is_recv=True, source=ANY_SOURCE, tag=ANY_TAG)
        req.state = RequestState.COMPLETED
        assert not self.matches(req, self.msg())

    def test_send_request_never_matches(self):
        req = Request(owner=0, is_recv=False)
        assert not self.matches(req, self.msg())

    def test_first_accepting_posted_receive_wins(self):
        box = MailBox(0)
        other, wildcard, exact = (
            Request(owner=0, is_recv=True, source=2, tag=5),
            Request(owner=0, is_recv=True, source=ANY_SOURCE, tag=5),
            Request(owner=0, is_recv=True, source=1, tag=5),
        )
        for req in (other, wildcard, exact):
            box.post_recv(req)
        assert box.deliver(self.msg(), 1.0) is wildcard  # post order, not specificity
        assert box.posted == [other, exact]


class TestRequestIdentity:
    def test_requests_hash_by_identity(self):
        a = Request(owner=0, is_recv=True)
        b = Request(owner=0, is_recv=True)
        assert a != b
        assert len({a, b}) == 2

    def test_request_ids_unique(self):
        ids = {Request(owner=0, is_recv=True).req_id for _ in range(100)}
        assert len(ids) == 100


class TestMessage:
    def test_status_exposes_identifier_fields(self):
        msg = Message(src=2, dst=0, tag=7, payload="x", clock=42, seq=3)
        status = msg.status
        assert (status.source, status.tag, status.clock) == (2, 7, 42)
