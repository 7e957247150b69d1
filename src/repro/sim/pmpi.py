"""PMPI-style interception layer and the matching-function controller.

The paper's tool sits between the application and MPI via the profiling
interface (PMPI), piggybacking Lamport clocks and observing every matching
function. Here the same seam is the :class:`MFController`: the engine
routes every MF call through it, and record/replay modes are controller
subclasses (:mod:`repro.replay.recorder`, :mod:`repro.replay.replayer`).

The base controller implements *natural* (unrecorded) MPI semantics:

====================  ====================================================
``Test``              deliver the single request iff completed, else flag 0
``Testany``           deliver the earliest completion, else flag 0
``Testsome``          deliver everything currently completed, else flag 0
``Testall``           deliver all iff all completed, else flag 0
``Wait``/``Waitall``  block until all completed, deliver all
``Waitany``           block until one completed, deliver the earliest
``Waitsome``          block until one completed, deliver all completed
====================  ====================================================

Send requests complete at post time (buffered sends), so they are always
deliverable; only receive completions are recorded (Section 3: message
sends are deterministic once receives are replayed, Definition 7).

Clocks update, events record, and results present in *delivery* order
(completion order naturally; recorded order in replay), so the application
iterates completions in exactly the replayed sequence.
"""

from __future__ import annotations

import operator
from typing import Sequence

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.sim.communicator import MailBox
from repro.sim.datatypes import Message, Request, RequestState
from repro.sim.process import MFCall, MFResult, SimProcess

_message_of = operator.attrgetter("message")

#: what a call that delivers nothing returns, by flag. ``MFResult`` is
#: frozen, so every such call can hand the application the same instance.
_NOTHING_DELIVERED = {False: MFResult(flag=False), True: MFResult(flag=True)}


def finalize_delivery(
    proc: SimProcess,
    call: MFCall,
    recv_order: Sequence[Request],
    sends: Sequence[Request],
    flag: bool,
) -> tuple[MFResult, MFOutcome | None]:
    """Apply a delivery decision: tick clocks, mark state, build results.

    ``recv_order`` is the order in which receive completions are handed to
    the application — the order CDC records and replays. Returns the
    application-facing result and the MF outcome to record (None when the
    call involves no receive requests at all: pure send synchronization is
    deterministic and outside the record, like the paper's sole focus on
    receives). :meth:`MFController.evaluate` answers a call with nothing to
    deliver itself and comes here only for the rest.
    """
    if recv_order:
        if proc.vector_clock is None:
            if len(recv_order) == 1:
                proc.clock.on_receive(recv_order[0].message.clock)
            else:
                proc.clock.on_receive_batch(
                    [req.message.clock for req in recv_order]
                )
        else:
            for req in recv_order:
                proc.clock.on_receive(req.message.clock)
                if req.message.vclock is not None:
                    proc.vector_clock.on_receive(req.message.vclock)

    # Presentation order = delivery order for receives (sends trail, sorted
    # by request position). The application therefore iterates messages in
    # exactly the recorded order during replay. Request *indices* may bind
    # differently between record and replay for wildcard receives — slots
    # are interchangeable; applications must not attach semantics to the
    # raw slot number beyond reposting (MCB-style patterns are fine).
    requests = call.requests
    if sends:
        index_of = {req: i for i, req in enumerate(requests)}
        delivered = list(recv_order) + sorted(sends, key=index_of.__getitem__)
        indices = tuple(index_of[r] for r in delivered)
    else:
        delivered = recv_order
        if len(requests) == 1:
            indices = (0,) if delivered else ()
        else:
            # keyed by identity and built at C speed: hashing every
            # request of the call per delivery (Request.__hash__ is Python)
            # cost more than the delivery itself on wide Waitsome sets
            index_of = dict(zip(map(id, requests), range(len(requests))))
            indices = tuple(map(index_of.__getitem__, map(id, delivered)))
    MailBox.mark_delivered(delivered)
    result = MFResult(flag, indices, tuple(map(_message_of, delivered)))

    outcome: MFOutcome | None = None
    if recv_order:
        outcome = MFOutcome(
            call.callsite,
            call.kind,
            tuple(
                [ReceiveEvent(req.message.src, req.message.clock) for req in recv_order]
            ),
        )
    elif call.has_recv and call.kind.is_test:
        outcome = MFOutcome(call.callsite, call.kind, ())
    # A wait-family call that delivered only sends produces no outcome:
    # it matched nothing the record cares about and cannot be "unmatched".
    return result, outcome


class MFController:
    """Natural-semantics controller (no recording, no replay)."""

    mode = "passthrough"
    #: whether decide() reads the mailboxes' completion logs; if not, the
    #: engine keeps none and only the application holds a delivered message.
    reads_completions = False

    def __init__(self) -> None:
        self.engine = None
        #: the engine's causal flow recorder; the engine hands it over when
        #: the run starts (it may be set any time before that).
        self.flow_recorder = None
        #: ... and the run's telemetry registry if enabled, else None.
        self.registry = None
        #: per callsite, the outcome of an unmatched poll there. It says
        #: only "this callsite, this kind, nothing matched" and is frozen,
        #: so every such poll reports the same validated instance.
        self._unmatched: dict[str, MFOutcome] = {}

    def attach(self, engine) -> None:
        self.engine = engine

    # -- the seam ----------------------------------------------------------

    def evaluate(
        self, proc: SimProcess, call: MFCall
    ) -> tuple[MFResult, float] | None:
        """Decide what ``call`` returns now, or None to keep it blocked.

        Answers ``(result, overhead)``: what the application receives and
        the extra virtual time :meth:`on_outcome` charged for the call.
        """
        decision = self.decide(proc, call)
        if decision is None:
            return None
        recv_order, sends, flag = decision
        if not recv_order and not sends:
            # Nothing to deliver — the unmatched poll, the majority event
            # of a polling application: no clock ticks, no request changes
            # state, and result and outcome are shared frozen instances.
            result = _NOTHING_DELIVERED[flag]
            kind = call.kind
            if not (call.has_recv and kind.is_test):
                return result, 0.0
            callsite = call.callsite
            outcome = self._unmatched.get(callsite)
            if outcome is None or outcome.kind is not kind:
                outcome = self._unmatched[callsite] = MFOutcome(callsite, kind, ())
            return result, self.on_outcome(proc, outcome, ())
        result, outcome = finalize_delivery(proc, call, recv_order, sends, flag)
        if outcome is None:
            return result, 0.0
        # receives lead ``result.messages``, in delivery order
        overhead = self.on_outcome(
            proc, outcome, result.messages[: len(recv_order)]
        )
        if recv_order and self.flow_recorder is not None:
            # Causal flow hook lives here rather than in any one
            # controller: every mode (baseline/record/replay) reports
            # matched receives the same way, so merged record+replay
            # timelines come out structurally comparable. (``_value_`` is
            # ``.value`` without the two Python frames of enum's property.)
            self.flow_recorder.on_delivery(
                proc.rank, call.callsite, call.kind._value_, proc.time, outcome.matched
            )
        return result, overhead

    def decide(
        self, proc: SimProcess, call: MFCall
    ) -> tuple[list[Request], list[Request], bool] | None:
        """Natural MPI semantics: (recv delivery order, sends, flag) or block.

        Structured as one branch per MF family so each kind computes only
        the state it needs — ``decide`` runs once per engine MF evaluation,
        including every re-arm of a parked call, so it dominates record-mode
        scheduling cost at high rank counts.
        """
        kind = call.kind
        requests = call.requests
        completed = RequestState.COMPLETED

        if kind is MFKind.TEST or kind is MFKind.WAIT:
            if len(requests) == 1:  # the only shape the Ctx API produces
                req = requests[0]
                if not req.is_recv:
                    sends = [req] if req.state is completed else []
                    return [], sends, True
                if req.state is completed:
                    return [req], [], True
                return ([], [], False) if kind is MFKind.TEST else None
            ready, sends = MailBox.deliverable(requests)
            if not requests[0].is_recv:
                return [], sends, True
            if ready:
                return ready[:1], [], True
            return ([], [], False) if kind is MFKind.TEST else None

        if kind is MFKind.TESTSOME or kind is MFKind.WAITSOME:
            ready, sends = MailBox.deliverable(requests)
            if ready or sends:
                return ready, sends, True
            return ([], [], False) if kind is MFKind.TESTSOME else None

        if kind is MFKind.TESTANY or kind is MFKind.WAITANY:
            ready, sends = MailBox.deliverable(requests)
            if ready:
                return ready[:1], [], True
            if sends:
                return [], sends[:1], True
            return ([], [], False) if kind is MFKind.TESTANY else None

        if kind is MFKind.TESTALL or kind is MFKind.WAITALL:
            # The "all" family reports through the statuses array, which
            # MPI fills in request order — so the application observes
            # completions in request-array order, independent of arrival
            # timing. This is what makes Irecv+Waitall halo exchanges
            # *hidden deterministic* (Section 6.3). One pass computes
            # readiness and the request-order delivery lists.
            delivered_state = RequestState.DELIVERED
            ready = []
            sends = []
            all_done = True
            for r in requests:
                state = r.state
                if r.is_recv:
                    if state is completed:
                        ready.append(r)
                    else:
                        all_done = False
                elif state is completed:
                    sends.append(r)
                elif state is not delivered_state:
                    all_done = False
            if all_done:
                return ready, sends, True
            return ([], [], False) if kind is MFKind.TESTALL else None
        raise AssertionError(f"unhandled MF kind {kind}")  # pragma: no cover

    # -- hooks for subclasses ----------------------------------------------

    def on_outcome(
        self, proc: SimProcess, outcome: MFOutcome, messages: Sequence[Message]
    ) -> float:
        """Called after every recordable MF delivery; returns its overhead.

        ``messages`` are the delivered receives' messages in delivery order
        (``outcome.matched`` names the same receives): full metadata, e.g.
        vector-clock piggybacks and sizes, that the recorded events
        intentionally drop. The return value is the extra virtual time the
        call costs the rank — the recording overhead model; 0 when nothing
        is recorded.
        """
        return 0.0

    def on_blocked(self, proc: SimProcess, call: MFCall) -> None:
        """Called when an MF call parks (replay mode launches clock beacons)."""

    def piggyback_bytes(self) -> int:
        """Per-message piggyback payload this mode adds (0 when off)."""
        return 0

    def finalize(self, procs: Sequence[SimProcess]) -> None:
        """End of run: flush chunks, close stores."""
