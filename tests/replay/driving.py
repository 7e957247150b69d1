"""Drive one callsite of a :class:`ReplayController` the way the engine does.

The replayer's script logic lives in ``ReplayController.decide``; there is
no callsite-level ``peek``/``consume`` to call any more. Tests that used to
poke the callsite state directly go through :class:`CallsiteDriver`
instead: it owns a one-rank controller, a real ``SimProcess`` mailbox and
a set of wildcard receives, lets messages *arrive* (``MailBox.deliver``,
so they land in the completion log or the unexpected queue exactly as in
a run) and issues MF calls through ``controller.evaluate`` — the fused
path the engine calls, clock ticks and slot filling included.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Sequence

from hypothesis import strategies as st

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.pipeline import CDCChunk
from repro.errors import RecordExhausted
from repro.replay.durable_store import RecordArchive
from repro.replay.replayer import CallsiteReplayState, DeliveryMode, ReplayController
from repro.sim.communicator import _completion_key
from repro.sim.datatypes import Message, Request, RequestState
from repro.sim.process import MFCall, SimProcess

CALLSITE = "cs"
TAG = 1

#: what a call came back with
BLOCKED = "blocked"
UNMATCHED = "unmatched"


def messages_for(events: Iterable[ReceiveEvent]) -> list[Message]:
    """One message per event, with per-sender FIFO sequence numbers in the
    order given (``events`` must be a legal arrival order)."""
    seq: dict[int, int] = {}
    out = []
    for ev in events:
        seq[ev.rank] = seq.get(ev.rank, -1) + 1
        out.append(
            Message(src=ev.rank, dst=0, tag=TAG, payload=None, clock=ev.clock,
                    seq=seq[ev.rank])
        )
    return out


class CallsiteDriver:
    """One rank, one callsite, ``width`` wildcard receives kept posted:
    arrivals complete them while any is pending and queue as unexpected
    beyond that, so both absorb sources are exercised."""

    def __init__(
        self,
        chunks: Sequence[CDCChunk],
        mode: DeliveryMode = DeliveryMode.PROGRESSIVE,
        width: int = 4,
    ) -> None:
        archive = RecordArchive(nprocs=1)
        for chunk in chunks:
            archive.append(0, chunk)
        self.controller = ReplayController(archive, delivery_mode=mode)
        self.proc = SimProcess(0, program=None)
        self.mailbox = self.proc.mailbox
        self.requests = [self._new_request() for _ in range(width)]
        self._time = 0.0

    @property
    def state(self) -> CallsiteReplayState | None:
        return self.controller._states[0].get(CALLSITE)

    def _new_request(self) -> Request:
        req = Request(owner=0, is_recv=True)
        # may complete at once, from the unexpected queue
        self.mailbox.post_recv(req)
        return req

    def arrive(self, msg: Message) -> None:
        self._time += 1.0
        self.mailbox.deliver(msg, self._time)

    def absorb_order(self) -> list[Message]:
        """The messages the next call will pool, in the documented order:
        completions by completion order, then unexpected by arrival. Read
        from the mailbox alone, so an oracle can be fed the same batch."""
        done = [
            r
            for r in self.mailbox.completion_log
            if r.state is RequestState.COMPLETED and r.message is not None
        ]
        done.sort(key=_completion_key)
        return [r.message for r in done] + list(self.mailbox.unexpected)

    def call(self, kind: MFKind = MFKind.TESTSOME):
        """One MF call over the current receives: ``BLOCKED``,
        ``UNMATCHED`` or the tuple of delivered messages. Delivered
        receives are replaced by fresh ones, as a polling program would;
        a call that blocked stays pending and is evaluated again."""
        call = self.proc.pending_call
        if call is None:  # else: a parked call is re-armed, as the engine does
            call = self.proc.pending_call = MFCall(
                kind, tuple(self.requests), CALLSITE
            )
        answer = self.controller.evaluate(self.proc, call)
        if answer is None:
            return BLOCKED
        self.proc.pending_call = None
        result, _overhead = answer
        if not result.messages:
            return UNMATCHED
        for index in result.indices:
            self.requests[index] = self._new_request()
        return tuple(result.messages)

    def drain(self, arrival: Sequence[Message], kind: MFKind = MFKind.TESTSOME,
              limit: int = 10_000):
        """Call until the record is exhausted, letting the next message of
        ``arrival`` in whenever the call blocks. Returns what each
        completed call delivered (``()`` for an unmatched test)."""
        pending = deque(arrival)
        emitted = []
        for _ in range(limit):
            try:
                got = self.call(kind)
            except RecordExhausted:
                return emitted
            if got is BLOCKED:
                assert pending, "decoder blocked with nothing left to arrive"
                self.arrive(pending.popleft())
            else:
                emitted.append(() if got is UNMATCHED else got)
        raise AssertionError("script did not finish")


def events_of(messages: Iterable[Message]) -> tuple[ReceiveEvent, ...]:
    return tuple(ReceiveEvent(m.src, m.clock) for m in messages)


@st.composite
def recorded_streams(draw):
    """(outcome stream, legal arrival order) pairs: up to four senders,
    unmatched tests before, between and after delivery groups of 1-3.

    The observed order is either any permutation of the events, or — the
    case no shipped workload produces and a full shuffle rarely isolates —
    every sender in clock order but for a few pairs of one sender's
    receives swapped (Figure 3: the application completed a later message
    first). With the chunk sizes the tests draw, a swapped pair falls inside
    one chunk (a non-empty diff against the sender column) or across a
    flush (a boundary exception), next to groups and unmatched runs."""
    n_senders = draw(st.integers(1, 4))
    n_events = draw(st.integers(1, 40))
    clocks = {s: 0 for s in range(n_senders)}
    events = []
    for _ in range(n_events):
        s = draw(st.integers(0, n_senders - 1))
        clocks[s] += draw(st.integers(1, 3))
        events.append(ReceiveEvent(s, clocks[s] * n_senders + s))

    # observed order: a permutation of the events (any observation is legal)
    observed = list(events)
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        random.Random(seed).shuffle(observed)
    else:
        for _ in range(draw(st.integers(0, 3))):
            sender = draw(st.integers(0, n_senders - 1))
            own = [p for p, ev in enumerate(observed) if ev.rank == sender]
            if len(own) > 1:
                i = draw(st.integers(0, len(own) - 2))
                # mostly neighbours: near enough to share a small chunk
                j = draw(st.integers(i + 1, min(i + 3, len(own) - 1)))
                observed[own[i]], observed[own[j]] = observed[own[j]], observed[own[i]]

    # outcomes with unmatched tests sprinkled in and occasional groups
    outcomes = []
    i = 0
    while i < len(observed):
        if draw(st.booleans()):
            outcomes.append(MFOutcome(CALLSITE, MFKind.TEST, ()))
        group = min(len(observed) - i, draw(st.integers(1, 3)))
        kind = MFKind.TESTSOME if group > 1 else MFKind.TEST
        outcomes.append(MFOutcome(CALLSITE, kind, tuple(observed[i : i + group])))
        i += group
    for _ in range(draw(st.integers(0, 2))):  # the run trailing the last event
        outcomes.append(MFOutcome(CALLSITE, MFKind.TEST, ()))

    # a legal arrival order: random interleave of per-sender FIFO queues
    per_sender = {}
    for ev in events:
        per_sender.setdefault(ev.rank, []).append(ev)
    for q in per_sender.values():
        q.sort(key=lambda e: e.clock)
    arrival = []
    rng = random.Random(seed + 1)
    queues = {s: deque(q) for s, q in per_sender.items()}
    while any(queues.values()):
        s = rng.choice([s for s, q in queues.items() if q])
        arrival.append(queues[s].popleft())
    return outcomes, arrival
