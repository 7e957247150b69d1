"""Per-process MPI-level message matching.

Implements the matching rules CDC's correctness argument leans on:

* **posted-receive queue**: an arriving message matches the first pending
  receive (in post order) whose source/tag accept it;
* **unexpected-message queue**: unmatched arrivals wait in arrival order; a
  newly posted receive takes the earliest matching one;
* **non-overtaking**: channels are FIFO per sender (enforced upstream by
  :class:`repro.sim.network.Network` and asserted here via ``seq``), so two
  same-(source, tag) messages always *match* in send order — even though
  the application may *observe* their completions out of order (Figure 3).

Completion (= match) is distinct from delivery (= an MF call returning the
request to the application); the gap between the two is where the whole
record-and-replay mechanism lives.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from repro.errors import CommunicatorError
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState

_completion_counter = itertools.count()

#: C-level sort key for completion order (hot in every Testsome sweep).
_completion_key = operator.attrgetter("completion_time", "completion_seq")


@dataclass
class MailBox:
    """MPI-level matching state for one process."""

    rank: int
    posted: list[Request] = field(default_factory=list)
    unexpected: list[Message] = field(default_factory=list)
    _last_seq_by_src: dict[int, int] = field(default_factory=dict)
    #: completions the replay controller has not drained yet, in completion
    #: order; None when no controller reads them (record, baseline).
    completion_log: list[Request] | None = field(default_factory=list)

    def post_recv(self, req: Request) -> None:
        """Post a nonblocking receive; may match an unexpected message."""
        if not req.is_recv:
            raise CommunicatorError("post_recv requires a receive request")
        if req.state is not RequestState.PENDING:
            raise CommunicatorError("cannot repost a used request")
        source, tag = req.source, req.tag
        for i, msg in enumerate(self.unexpected):
            if (source == ANY_SOURCE or source == msg.src) and (
                tag == ANY_TAG or tag == msg.tag
            ):
                del self.unexpected[i]
                self._complete(req, msg, msg.arrival_time)
                return
        self.posted.append(req)

    def deliver(self, msg: Message, time: float) -> Request | None:
        """A message arrives: match a posted receive or park it.

        Returns the completed request, or None if the message was
        unexpected.
        """
        last = self._last_seq_by_src.get(msg.src, -1)
        if msg.seq <= last:
            raise CommunicatorError(
                f"FIFO violation from rank {msg.src}: seq {msg.seq} after {last}"
            )
        self._last_seq_by_src[msg.src] = msg.seq
        msg.arrival_time = time
        src, tag, pending = msg.src, msg.tag, RequestState.PENDING
        for i, req in enumerate(self.posted):
            if req.is_recv and req.state is pending and (
                req.source == ANY_SOURCE or req.source == src
            ) and (req.tag == ANY_TAG or req.tag == tag):
                del self.posted[i]
                self._complete(req, msg, time)
                return req
        self.unexpected.append(msg)
        return None

    def _complete(self, req: Request, msg: Message, time: float) -> None:
        req.state = RequestState.COMPLETED
        req.message = msg
        req.completion_time = time
        req.completion_seq = next(_completion_counter)
        if self.completion_log is not None:
            self.completion_log.append(req)

    def cancel(self, req: Request) -> None:
        """Remove a pending posted receive (MPI_Cancel analogue)."""
        if req in self.posted:
            self.posted.remove(req)
            req.state = RequestState.INACTIVE

    @staticmethod
    def deliverable(requests) -> tuple[list[Request], list[Request]]:
        """Split the completed-but-undelivered of ``requests``: (receives, sends).

        Receives come back in completion order — deterministic per sender
        (FIFO channels), and the natural order in which an unrecorded run
        hands completions to the application; sends (they complete at post
        time) in request order. One pass: it runs on every poll.
        """
        ready: list[Request] = []
        sends: list[Request] = []
        completed = RequestState.COMPLETED
        for r in requests:
            if r.state is completed:
                if r.is_recv:
                    ready.append(r)
                else:
                    sends.append(r)
        if len(ready) > 1:
            ready.sort(key=_completion_key)
        return ready, sends

    @staticmethod
    def mark_delivered(requests) -> None:
        completed = RequestState.COMPLETED
        for req in requests:
            if req.state is not completed:
                raise CommunicatorError("delivering a non-completed request")
            req.state = RequestState.DELIVERED
