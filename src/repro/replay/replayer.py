"""Replay mode: decode CDC records and force the recorded receive order.

Architecture (mirrors what a PMPI-level replay tool like ReMPI must do):

**Message pool, not request binding.** During replay, message arrival order
differs from the recorded run, so the MPI-level binding of messages to
wildcard receive requests differs too. The replayer therefore decouples
them per ``(rank, callsite)``:

* completed receives whose requests appear in an MF call at the callsite
  are *stripped*: their message goes into the callsite's pool (the message
  itself, filed under its sender), the request becomes a free slot;
* *unexpected* messages (arrived, no matching posted receive — e.g. the
  recorded next message when the app keeps only one outstanding wildcard
  receive) are drained into the pool through the call's receive filters,
  emulating the internal shadow receives a real tool posts;
* on delivery, each recorded event's message is assigned to a compatible
  undelivered request slot of the *current* call (specific filters
  before wildcards; :func:`assign_slots`), completing pending slots in
  place when necessary.

**Membership and gating.** Pool entries feed the active chunk through the
per-sender quota (DESIGN.md §5.2) with the epoch line as a cross-check.
What releases a delivery depends on what the chunk stores:

* with the replay-assist column (the default), the chunk is a fully
  determined script: position ``p`` is "the ``k``-th arrival from sender
  ``s``". The whole script is laid out as flat lists when the chunk is
  activated and every sender's arrivals queue in clock order, so an MF
  call compares one arrival count and takes the message by index
  (DESIGN.md §5.5);
* without it, delivery follows the paper's Axiom 1: the event at observed
  cursor ``p`` (reference index ``order[p]`` from the stored permutation
  difference) is released once its reference position is *certain* — it
  lies in the prefix of pooled events whose clocks are below the **Local
  Minimum Clock**, the smallest clock any still-missing chunk member
  could carry (per-sender last-seen clock + 1; clocks strictly increase
  per sender over FIFO channels). ``DeliveryMode.BARRIER`` instead waits
  for the whole chunk (Section 4.2's simple reading) and is only safe
  when all of a chunk's receives are posted independently of held-back
  deliveries.

Unmatched-test runs replay recorded matching statuses verbatim: a Test
recorded as unmatched returns ``flag = 0`` even if messages already
arrived, and a Test recorded as matched *waits* for the recorded message.
"""

from __future__ import annotations

import enum
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.core.events import MFKind, ReceiveEvent
from repro.core.formats import callsite_id, callsite_label
from repro.core.permutation import decode_permutation
from repro.core.pipeline import CDCChunk, assist_occurrence_indices
from repro.errors import (
    RecordExhausted,
    RecordFormatError,
    ReplayDivergence,
    ReplayStallError,
)
from repro.obs import get_registry
from repro.replay.durable_store import RecordArchive
from repro.sim.communicator import MailBox, _completion_key
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState
from repro.sim.pmpi import MFController
from repro.sim.process import MFCall, SimProcess


class DeliveryMode(enum.Enum):
    """When a buffered completion may be released to the application."""

    #: Axiom 1 / LMC gating — the paper's online behaviour (default).
    PROGRESSIVE = "progressive"
    #: hold until every chunk member arrived.
    BARRIER = "barrier"


def groups_from_with_next(with_next_indices: Sequence[int], n: int) -> list[int]:
    """Per observed index, the (inclusive) end index of its delivery group."""
    ends = list(range(n))
    for i in sorted(with_next_indices, reverse=True):
        if 0 <= i < n - 1:
            ends[i] = ends[i + 1]
    return ends


def filter_accepts(req: Request, msg: Message) -> bool:
    """Would this receive request's (source, tag) filter accept ``msg``?

    State-independent — used for slot reassignment, unlike MPI matching
    (:meth:`MailBox.deliver <repro.sim.communicator.MailBox.deliver>`),
    which only considers pending requests.
    """
    if not req.is_recv:
        return False
    if req.source != ANY_SOURCE and req.source != msg.src:
        return False
    if req.tag != ANY_TAG and req.tag != msg.tag:
        return False
    return True


#: floor value used when a sender can provably never send again.
_CLOCK_INFINITY = 1 << 62


#: what an unmatched poll over a send-less request set decides: deliver
#: nothing, flag false. ``evaluate`` only reads a decision, so every such
#: poll — the majority event of a polling application — shares this one.
_UNMATCHED_POLL: tuple = ((), (), False)


@dataclass
class CallsiteReplayState:
    """Decoder + delivery gate for one (rank, callsite) record stream.

    The state keeps the schedule and the arrivals;
    :meth:`ReplayController.decide` reads both directly (DESIGN.md §5.5).
    An assist chunk needs nothing else. An assist-less chunk adds the
    paper's certainty reasoning (:meth:`certain_group`).
    """

    rank: int
    callsite: str
    pending_chunks: deque[CDCChunk]
    mode: DeliveryMode = DeliveryMode.PROGRESSIVE
    #: shared per-receiving-rank channel floors: sender -> highest clock the
    #: tool has seen from that sender at this rank, across *all* callsites.
    #: Valid because channels are FIFO and a sender's attached clocks
    #: strictly increase, independent of tag or callsite.
    global_floor: dict[int, int] = field(default_factory=dict)

    chunk: CDCChunk | None = None
    #: its index in this callsite's record (-1 before the first).
    chunk_index: int = -1
    #: the active chunk's event count (0 when there is none).
    num_events: int = 0
    order: list[int] = field(default_factory=list)
    #: the schedule, laid out once per chunk at activation — indexed by
    #: observed position, so a call only compares and indexes.
    #: With replay assist: the recorded sender of each position (None for a
    #: chunk without the column, which takes the LMC path instead) ...
    senders: Sequence[int] | None = None
    #: ... and which of that sender's chunk arrivals the position is
    #: (1-based, clock order) — deterministic delivery, no LMC needed.
    occurrence: list[int] = field(default_factory=list)
    #: inclusive end of the delivery group each position belongs to.
    group_end: list[int] = field(default_factory=list)
    #: unmatched tests still to replay before each position (length n + 1:
    #: the last entry is the run trailing the chunk's final event).
    unmatched_left: list[int] = field(default_factory=lambda: [0])
    #: the active chunk's epoch line: per-sender clock ceiling.
    ceilings: Mapping[int, int] = field(default_factory=dict)
    cursor: int = 0
    #: assist chunks: positions in [cursor, ready) are known to have
    #: arrived, so a re-armed call resumes its check where it blocked.
    ready: int = 0
    #: assist chunks: per sender, the messages of its chunk arrivals in
    #: feed (= clock) order; ``occurrence`` indexes these queues. A
    #: delivered entry is replaced by None, so the state holds a message
    #: only from its arrival to its delivery.
    arrived_per_sender: dict[int, list[Message | None]] = field(default_factory=dict)
    quota: dict[int, int] = field(default_factory=dict)
    #: assist-less chunks: members in reference order so far, sorted by
    #: (clock, sender) — what the certainty prefix is measured on — each
    #: with its message (None once delivered).
    arrived_sorted: list[tuple[tuple[int, int], Message | None]] = field(
        default_factory=list
    )
    #: arrivals fed into the active chunk and not delivered yet — the one
    #: "how much is pooled" figure reports, the stall detector and the
    #: ``replay.pool_occupancy`` gauge read.
    pooled_count: int = 0
    #: per-sender clock of the last event fed into the *active* chunk
    #: (reset at activation; within a chunk a sender's members arrive in
    #: clock order, so this doubles as a regression check and LMC floor).
    last_clock_by_sender: dict[int, int] = field(default_factory=dict)
    #: arrivals beyond the active chunk's quota, for later chunks.
    overflow: deque[Message] = field(default_factory=deque)
    #: (rank, clock) pairs claimed by *later* chunks' boundary exceptions —
    #: arrivals that must not be fed into the active chunk even though its
    #: quota and epoch would accept them (DESIGN.md §5.2).
    claimed_later: set[tuple[int, int]] = field(default_factory=set)
    delivered_events: int = 0
    #: virtual time at which this callsite first reported BLOCKED since its
    #: last delivery (telemetry: per-callsite replay wait time).
    blocked_since: float | None = None
    #: the call parked here and the ``(source, tag)`` filters of its
    #: receives: every arrival re-arms a parked call, and it must not
    #: rebuild them each time. Kept only while the call is parked.
    parked_call: MFCall | None = None
    parked_filters: set[tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        for chunk in self.pending_chunks:
            self.claimed_later.update(chunk.boundary_exceptions)
        self._activate_next()

    # -- chunk lifecycle ------------------------------------------------------

    def _activate_next(self) -> None:
        """Make the next chunk active and lay its schedule out.

        Everything a call needs to know about the chunk is derived here,
        once: the permutation is decoded a single time and shared with the
        occurrence count, and groups and unmatched runs become lists
        indexed by observed position.
        """
        if not self.pending_chunks:
            self.chunk = None
            self.quota = {}  # nothing is a member: every arrival overflows
            return
        chunk = self.pending_chunks.popleft()
        self.chunk_index += 1
        n = chunk.num_events
        senders = chunk.sender_sequence
        if senders is not None and len(senders) != n:
            raise RecordFormatError(
                f"callsite {self.callsite!r}: assist column has {len(senders)} "
                f"senders for {n} events"
            )
        unmatched_left = [0] * (n + 1)
        for position, count in chunk.unmatched_runs:
            if not 0 <= position <= n:
                raise RecordFormatError(
                    f"callsite {self.callsite!r}: unmatched run at position "
                    f"{position} of a {n}-event chunk"
                )
            unmatched_left[position] = count
        self.chunk = chunk
        self.num_events = n
        # this chunk's boundary exceptions are now *its own* members
        self.claimed_later.difference_update(chunk.boundary_exceptions)
        self.order = decode_permutation(chunk.diff)
        self.senders = senders
        if senders is None:
            self.occurrence = []
            self.quota = dict(chunk.sender_counts)
        else:
            # the sender column is the one source of an assist chunk's
            # quota (DESIGN.md §5.9); a count column that came along with
            # a hand-built chunk may only repeat it
            self.occurrence = assist_occurrence_indices(chunk, self.order)
            self.quota = dict(Counter(senders))
            if chunk.sender_counts and dict(chunk.sender_counts) != self.quota:
                raise RecordFormatError(
                    f"rank {self.rank} callsite {self.callsite!r} chunk "
                    f"{self.chunk_index}: sender_counts {chunk.sender_counts} "
                    "contradict the sender column"
                )
        self.group_end = groups_from_with_next(chunk.with_next_indices, n)
        self.unmatched_left = unmatched_left
        self.ceilings = chunk.epoch.max_clock_by_rank
        self.cursor = 0
        self.ready = 0
        self.arrived_per_sender = {}
        self.last_clock_by_sender = {}
        self.arrived_sorted = []
        self.pooled_count = 0
        if self.overflow:
            backlog = list(self.overflow)
            self.overflow.clear()
            registry = get_registry()
            if not registry.enabled:
                registry = None
            for msg in backlog:
                self.feed(msg, registry)

    def advance(self) -> None:
        """Step over finished chunks: activate the next one while the
        active one has no event and no unmatched test left to replay."""
        while (
            self.chunk is not None
            and self.cursor >= self.num_events
            and self.unmatched_left[self.num_events] == 0
        ):
            # note: earlier-chunk ceilings must NOT carry into the next
            # chunk's clock floors — boundary-exception events legitimately
            # sit below them; the per-chunk min-clock hints fill that role.
            self._activate_next()

    # -- arrivals ----------------------------------------------------------------

    def feed(self, msg: Message, registry=None) -> None:
        """Pool a message observed for this callsite.

        Every membership and divergence check runs on every arrival,
        whichever path delivers it; only the bookkeeping differs — an
        assist chunk queues the message under its sender, an assist-less
        one keeps the reference order the certainty prefix is read from.
        ``registry`` is the enabled telemetry registry, or None: whoever
        feeds a batch of arrivals looks it up once.
        """
        sender = msg.src
        clock = msg.clock
        remaining = self.quota.get(sender, 0)
        if remaining <= 0 or (sender, clock) in self.claimed_later:
            self.overflow.append(msg)
            return
        prev = self.last_clock_by_sender.get(sender, -1)
        if prev >= 0 and clock <= prev:
            raise ReplayDivergence(
                self.rank,
                f"callsite {self.callsite!r}: per-sender clock order violated "
                f"({ReceiveEvent(sender, clock)} after clock {prev}); a sender's "
                "stream is split across callsites in a way the record cannot "
                "disambiguate",
            )
        ceiling = self.ceilings.get(sender)
        if ceiling is None or clock > ceiling:
            raise ReplayDivergence(
                self.rank,
                f"callsite {self.callsite!r}: arrival {ReceiveEvent(sender, clock)} "
                f"exceeds the chunk epoch line ({ceiling}); record/replay clock "
                "mismatch",
            )
        self.quota[sender] = remaining - 1
        if self.senders is not None:
            arrived = self.arrived_per_sender.get(sender)
            if arrived is None:
                self.arrived_per_sender[sender] = [msg]
            else:
                arrived.append(msg)
        else:
            insort(self.arrived_sorted, ((clock, sender), msg))
        self.pooled_count += 1
        self.last_clock_by_sender[sender] = clock
        if self.global_floor.get(sender, -1) < clock:
            self.global_floor[sender] = clock
        if registry is not None:
            registry.counter("replay.pooled_events").add()
            registry.gauge("replay.pool_occupancy").set_max(self.pooled_count)

    def pooled_clocks(self) -> list[int]:
        """Clocks of the pooled (fed, undelivered) arrivals, unordered."""
        if self.senders is None:
            return [key[0] for key, msg in self.arrived_sorted if msg is not None]
        return [
            msg.clock
            for queue in self.arrived_per_sender.values()
            for msg in queue
            if msg is not None
        ]

    # -- certainty / LMC ------------------------------------------------------------

    def certainty_horizon(self) -> tuple[int, int] | None:
        """Smallest ``(clock, sender)`` key a missing chunk member could have.

        This is the tie-aware Local Minimum Clock of Axiom 1: an arrived
        event is certain iff its key sorts strictly below the horizon.
        ``None`` means no members are missing. Per pending sender the clock
        bound combines: (a) the recorded first-clock hint when nothing from
        it was pooled into this chunk yet (exact); (b) the last clock
        pooled at this callsite + 1; (c) the per-rank channel floor + 1
        (any arrival or clock beacon from that sender, any callsite — FIFO
        makes clocks channel-monotone).
        """
        assert self.chunk is not None
        pending = [s for s, q in self.quota.items() if q > 0]
        if not pending:
            return None
        counts = dict(self.chunk.sender_counts)
        mins = dict(self.chunk.sender_min_clocks)
        horizon: tuple[int, int] | None = None
        for s in pending:
            bound = max(
                self.last_clock_by_sender.get(s, -1) + 1,
                self.global_floor.get(s, -1) + 1,
            )
            if self.quota[s] == counts[s]:  # nothing pooled yet: exact hint
                bound = max(bound, mins.get(s, 0))
            pair = (bound, s)
            if horizon is None or pair < horizon:
                horizon = pair
        return horizon

    def _certain_count(self) -> int:
        """Length of the finalized prefix of the reference order."""
        assert self.chunk is not None
        horizon = self.certainty_horizon()
        if horizon is None:
            return len(self.arrived_sorted)
        if self.mode is DeliveryMode.BARRIER:
            return 0  # some member missing -> nothing is releasable
        # arrived events keyed strictly below the horizon sort before any
        # possible future arrival
        lo, hi = 0, len(self.arrived_sorted)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.arrived_sorted[mid][0] < horizon:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def certain_group(self) -> list[Message] | None:
        """The assist-less decode step: the messages of the delivery group
        at the cursor, or None while any of them is not yet *certain* —
        its reference index (from the stored permutation) lies outside the
        finalized prefix of the pooled events."""
        certain = self._certain_count()
        order = self.order
        arrived = self.arrived_sorted
        messages: list[Message] = []
        for pos in range(self.cursor, self.group_end[self.cursor] + 1):
            ref_index = order[pos]
            if ref_index >= certain:
                return None
            messages.append(arrived[ref_index][1])
        return messages

    def never_certain(self) -> bool:
        """Could the group at the cursor stay uncertain even if every
        channel floor rose to infinity? Then only a new arrival can release
        it: with infinite floors the certain prefix is everything pooled
        (PROGRESSIVE), or nothing while a member is missing (BARRIER)."""
        if self.mode is DeliveryMode.BARRIER:
            return any(q > 0 for q in self.quota.values())
        pooled = len(self.arrived_sorted)
        order = self.order
        return any(
            order[p] >= pooled for p in range(self.cursor, self.group_end[self.cursor] + 1)
        )

    # -- diagnostics ------------------------------------------------------------------

    def status(self) -> str:
        """What the next MF call here would meet: ``unmatched`` | ``group``
        | ``blocked`` | ``exhausted``. For reports only — ``decide`` reads
        the schedule itself."""
        self.advance()
        if self.chunk is None:
            return "exhausted"
        start = self.cursor
        if self.unmatched_left[start] > 0:
            return "unmatched"
        senders = self.senders
        if senders is None:
            return "blocked" if self.certain_group() is None else "group"
        arrived, occurrence = self.arrived_per_sender, self.occurrence
        for pos in range(start, self.group_end[start] + 1):
            if len(arrived.get(senders[pos], ())) < occurrence[pos]:
                return "blocked"
        return "group"


def assign_slots(
    requests: Sequence[Request], messages: Sequence[Message]
) -> list[Request] | None:
    """Match each group message to a compatible undelivered request slot.

    A bipartite matching that prefers specific slots, so wildcards stay
    available for other messages: each message tries exact ``(source,
    tag)`` slots, then source-only, tag-only and full wildcards, lowest
    request index first. Open slots are bucketed by filter key, so taking
    "the first unused slot of a class" is one probe — and since every taker
    takes a bucket's first unused slot, the used ones are always a prefix
    and a per-bucket count is all the bookkeeping there is.

    That greedy pass is exactly the first descent of a backtracking search
    over the same preference order, so whenever no message runs out of
    slots it *is* that search's answer. Only on a dead end (an earlier
    message took the slot a later one needed) does the search itself run.
    """
    completed, pending = RequestState.COMPLETED, RequestState.PENDING
    buckets: dict[tuple[int, int], list[Request]] = {}
    for req in requests:
        if req.is_recv and (req.state is completed or req.state is pending):
            key = (req.source, req.tag)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [req]
            else:
                bucket.append(req)
    taken: dict[tuple[int, int], int] = {}
    chosen: list[Request] = []
    for msg in messages:
        src, tag = msg.src, msg.tag
        for key in (
            (src, tag),
            (src, ANY_TAG),
            (ANY_SOURCE, tag),
            (ANY_SOURCE, ANY_TAG),
        ):
            bucket = buckets.get(key)
            if bucket is not None:
                used = taken.get(key, 0)
                if used < len(bucket):
                    taken[key] = used + 1
                    chosen.append(bucket[used])
                    break
        else:
            return _backtrack_slots(requests, messages)
    return chosen


def _backtrack_slots(
    requests: Sequence[Request], messages: Sequence[Message]
) -> list[Request] | None:
    """Exhaustive slot search; the dead-end fallback of :func:`assign_slots`."""
    slots = [
        r
        for r in requests
        if r.is_recv and r.state in (RequestState.COMPLETED, RequestState.PENDING)
    ]
    candidates: list[list[int]] = []
    for msg in messages:
        accept = [i for i, s in enumerate(slots) if filter_accepts(s, msg)]
        # specific filters first, wildcards last
        accept.sort(key=lambda i: (slots[i].source == ANY_SOURCE, slots[i].tag == ANY_TAG))
        if not accept:
            return None
        candidates.append(accept)

    used: set[int] = set()
    chosen: list[int] = []

    def backtrack(k: int) -> bool:
        if k == len(messages):
            return True
        for i in candidates[k]:
            if i in used:
                continue
            used.add(i)
            chosen.append(i)
            if backtrack(k + 1):
                return True
            used.remove(i)
            chosen.pop()
        return False

    if not backtrack(0):
        return None
    return [slots[i] for i in chosen]


_COMPLETED, _PENDING = RequestState.COMPLETED, RequestState.PENDING


def _completed_sends(requests: Sequence[Request]) -> list[Request]:
    """A call's deliverable sends, in request order (``call.has_send``
    says whether there can be any)."""
    return [r for r in requests if not r.is_recv and r.state is _COMPLETED]


class ReplayController(MFController):
    """Force every MF call to return the recorded outcome."""

    mode = "replay"
    reads_completions = True

    def __init__(
        self,
        archive: RecordArchive,
        delivery_mode: DeliveryMode = DeliveryMode.PROGRESSIVE,
        piggyback: int = 8,
        keep_outcomes: bool = True,
    ) -> None:
        super().__init__()
        self.archive = archive
        self.delivery_mode = delivery_mode
        self._piggyback = piggyback
        self.keep_outcomes = keep_outcomes
        self.outcomes: dict[int, list] = {r: [] for r in range(archive.nprocs)}
        #: per rank, its callsites' decoders by callsite label.
        self._states: list[dict[str, CallsiteReplayState]] = [
            {} for _ in range(archive.nprocs)
        ]
        #: events recorded per (rank, callsite), for the delivered summary.
        self._recorded: dict[tuple[int, str], int] = {}
        self._floors: dict[int, dict[int, int]] = {
            r: {} for r in range(archive.nprocs)
        }
        #: (sender, receiver) pairs with a clock beacon in flight.
        self._beacons_in_flight: set[tuple[int, int]] = set()
        #: ranks with a pending blocked-retry tick.
        self._retry_pending: set[int] = set()
        #: stall detection: the progress signature the last retry tick left,
        #: and the ranks whose ticks since then changed nothing.
        self._quiet_signature: tuple | None = None
        self._quiet_ranks: set[int] = set()
        #: virtual latency of a tool beacon round (small control message).
        self.beacon_nbytes = 16
        #: re-probe period while blocked (virtual seconds).
        self.beacon_retry_interval = 5.0e-5
        for rank in range(archive.nprocs):
            for callsite, chunks in archive.chunks_by_callsite(rank).items():
                self._recorded[(rank, callsite)] = sum(c.num_events for c in chunks)
                self._states[rank][callsite] = CallsiteReplayState(
                    rank,
                    callsite,
                    deque(chunks),
                    mode=delivery_mode,
                    global_floor=self._floors[rank],
                )

    def _adopt(self, rank: int, callsite: str) -> CallsiteReplayState | None:
        """The state of the chunks a manifest-less salvage labelled with
        ``callsite``'s id, filed under the name the program calls it by from
        now on; None when there is none."""
        label = callsite_label(callsite_id(callsite))
        state = self._states[rank].pop(label, None)
        if state is not None:
            state.callsite = callsite
            self._states[rank][callsite] = state
            self._recorded[(rank, callsite)] = self._recorded.pop((rank, label))
        return state

    def callsite_states(self) -> Iterator[CallsiteReplayState]:
        """Every (rank, callsite) decoder, ranks ascending."""
        for by_callsite in self._states:
            yield from by_callsite.values()

    def piggyback_bytes(self) -> int:
        return self._piggyback

    def on_outcome(self, proc: SimProcess, outcome, messages) -> float:
        if self.keep_outcomes:
            self.outcomes[proc.rank].append(outcome)
        return 0.0

    # -- decision logic -----------------------------------------------------------

    def decide(self, proc: SimProcess, call: MFCall):
        """Return what the record says this call returned, or None to park.

        One pass over the callsite's state (DESIGN.md §5.5): absorb what
        arrived, replay an unmatched test or check the delivery group at
        the cursor against the per-sender queues, and on a hit hand the
        queued messages to the call's request slots and release them.
        """
        if not call.has_recv:
            return super().decide(proc, call)
        rank = proc.rank
        callsite = call.callsite
        state = self._states[rank].get(callsite)
        if state is None:
            state = self._adopt(rank, callsite)
            if state is None:
                raise RecordExhausted(rank, callsite)
        requests = call.requests
        mailbox = proc.mailbox
        filters = None
        if mailbox.completion_log or mailbox.unexpected:
            if state.parked_call is call:
                filters = state.parked_filters
            if filters is None:
                filters = {(r.source, r.tag) for r in requests if r.is_recv}
            self._absorb_arrivals(mailbox, filters, state)

        cursor = state.cursor
        unmatched_left = state.unmatched_left
        if cursor >= state.num_events and not unmatched_left[cursor]:
            state.advance()
            if state.chunk is None:
                raise RecordExhausted(rank, callsite)
            cursor = state.cursor
            unmatched_left = state.unmatched_left
        kind = call.kind
        if unmatched_left[cursor]:
            if not kind.is_test:
                raise ReplayDivergence(
                    rank,
                    f"{kind.value} at {callsite!r} but the record "
                    "expects an unmatched test",
                )
            unmatched_left[cursor] -= 1
            if not call.has_send:
                return _UNMATCHED_POLL
            return self._unmatched_decision(call, _completed_sends(requests))

        # the delivery group at the cursor: positions cursor..end
        end = state.group_end[cursor]
        senders = state.senders
        if senders is not None:
            # deterministic identification: position p is the k-th arrival
            # from its recorded sender. Arrivals only accumulate within a
            # chunk, so the check resumes at the position it last blocked on.
            occurrence = state.occurrence
            arrived = state.arrived_per_sender
            pos = state.ready
            if pos < cursor:
                pos = cursor
            while pos <= end:
                queue = arrived.get(senders[pos])
                if queue is None or len(queue) < occurrence[pos]:
                    break
                pos += 1
            state.ready = pos
            if pos <= end:
                messages = None
            elif end == cursor:
                messages = [arrived[senders[cursor]][occurrence[cursor] - 1]]
            else:
                messages = [
                    arrived[senders[p]][occurrence[p] - 1]
                    for p in range(cursor, end + 1)
                ]
        else:
            messages = state.certain_group()

        registry = self.registry
        if messages is None:
            if registry is not None:
                registry.counter("replay.blocked_polls").add()
                if state.blocked_since is None:
                    state.blocked_since = self._now(proc)
        else:
            count = end - cursor + 1
            if count > 1 and not kind.can_match_multiple:
                raise ReplayDivergence(
                    rank,
                    f"record delivers {count} receives to single-completion "
                    f"{kind.value} at {callsite!r}",
                )
            if count == 1 and len(requests) == 1:
                # one message for the call's one receive: its filter and
                # state are the whole slot search
                slot, msg = requests[0], messages[0]
                assignment = (
                    [slot]
                    if (slot.state is _COMPLETED or slot.state is _PENDING)
                    and (slot.source == ANY_SOURCE or slot.source == msg.src)
                    and (slot.tag == ANY_TAG or slot.tag == msg.tag)
                    else None
                )
            else:
                assignment = assign_slots(requests, messages)
            if assignment is not None:
                if registry is not None:
                    registry.counter("replay.delivered_events").add(count)
                    if state.blocked_since is not None:
                        wait = max(0.0, self._now(proc) - state.blocked_since)
                        state.blocked_since = None
                        registry.histogram(
                            f"replay.wait_us[{callsite}]"
                        ).observe(int(wait * 1e6))
                # commit: the cursor moves past the group and the state lets
                # go of the delivered messages (the slots hold them now)
                state.cursor = end + 1
                state.delivered_events += count
                state.pooled_count -= count
                if senders is not None:
                    for p in range(cursor, end + 1):
                        arrived[senders[p]][occurrence[p] - 1] = None
                else:
                    arrived_sorted, order = state.arrived_sorted, state.order
                    for p in range(cursor, end + 1):
                        ref_index = order[p]
                        arrived_sorted[ref_index] = (arrived_sorted[ref_index][0], None)
                state.parked_call = state.parked_filters = None
                for slot, msg in zip(assignment, messages):
                    if slot.state is _PENDING:
                        # cannibalize the posted receive: the tool returns
                        # recorded content through it; whatever would have
                        # matched it later will surface in the unexpected
                        # queue and be drained then.
                        mailbox.cancel(slot)
                        slot.state = _COMPLETED
                    slot.message = msg
                sends = _completed_sends(requests) if call.has_send else ()
                return assignment, sends, True
            # else: a compatible slot is not available yet
        state.parked_call = call
        state.parked_filters = filters
        return None

    def _now(self, proc: SimProcess) -> float:
        # engine time, not proc.time: a parked rank's local clock freezes
        # until it resumes.
        return self.engine.now if self.engine is not None else proc.time

    # -- pooling -----------------------------------------------------------------

    def _absorb_arrivals(
        self, mailbox: MailBox, filters: set[tuple[int, int]], state: CallsiteReplayState
    ) -> None:
        """Strip matching completed receives and drain unexpected ones.

        Attribution is by *filter*, not by request identity: any completed
        receive owned by this rank whose message the current call's filters
        accept belongs to this callsite — the recorded message may have
        been MPI-matched to a sibling request of the same pool, not
        necessarily one in this very call's set. (This is why replayability
        requires callsites to use disjoint receive filters; overlap is
        detected by the per-sender clock checks in ``feed``.) A filter test
        is at most four set probes, however many requests share the filters.

        Both sources feed the pool in per-sender clock order: completions
        in completion order (FIFO channels keep that clock-ordered per
        sender), then unexpected messages in arrival order.

        A stripped request keeps state COMPLETED with ``message = None`` —
        a free slot. It needs no other bookkeeping: it left the completion
        log here, a request completes (and so enters the log) only once,
        and a slot that a delivery fills is returned to the application
        before the log is read again.
        """
        registry = self.registry
        feed = state.feed
        log = mailbox.completion_log
        if log:
            fresh: list[Request] = []
            remaining_log: list[Request] = []
            for req in log:
                if req.state is not _COMPLETED:
                    continue  # delivered meanwhile: drop from the log
                msg = req.message
                if msg is not None and (
                    (ANY_SOURCE, msg.tag) in filters or (msg.src, msg.tag) in filters
                    or (ANY_SOURCE, ANY_TAG) in filters or (msg.src, ANY_TAG) in filters
                ):
                    fresh.append(req)
                else:
                    remaining_log.append(req)
            log[:] = remaining_log
            if len(fresh) > 1:
                fresh.sort(key=_completion_key)
            for req in fresh:
                msg = req.message
                req.message = None
                feed(msg, registry)

        unexpected = mailbox.unexpected
        if unexpected:
            kept: list[Message] = []
            for msg in unexpected:
                if (
                    (ANY_SOURCE, msg.tag) in filters or (msg.src, msg.tag) in filters
                    or (ANY_SOURCE, ANY_TAG) in filters or (msg.src, ANY_TAG) in filters
                ):
                    feed(msg, registry)
                else:
                    kept.append(msg)
            unexpected[:] = kept

    @staticmethod
    def _unmatched_decision(call: MFCall, sends: list[Request]):
        """Reproduce record-time flag/send behaviour for an unmatched test."""
        if call.kind is MFKind.TESTANY:
            return ([], sends[:1], True) if sends else ([], [], False)
        if call.kind is MFKind.TESTSOME:
            return ([], sends, bool(sends))
        # TEST, TESTALL: deliver nothing, flag false
        return [], [], False

    # -- clock beacons (online LMC realization) ---------------------------------------

    def on_blocked(self, proc: SimProcess, call: MFCall) -> None:
        """Launch clock beacons toward senders whose floors block delivery.

        The paper's Axiom 1 gates delivery on the Local Minimum Clock but
        leaves its online computation open. We realize it with tool-level
        *clock beacons*: when rank ``i`` blocks on uncertainty from sender
        ``s``, the tool fetches ``s``'s current Lamport clock over the same
        FIFO channel application messages use. FIFO ordering makes the
        beacon value a sound floor: every ``s → i`` message still in flight
        was scheduled before the beacon (arrives first), and every later
        send attaches a clock at least as large as the beaconed value.
        """
        if self.engine is None:
            return
        state = self._states[proc.rank].get(call.callsite)
        if state is None or state.chunk is None:
            return
        if state.senders is not None:
            return  # deterministic identification: arrivals alone re-arm us
        receiver = proc.rank
        launched = False
        for sender, quota in state.quota.items():
            if quota <= 0 or sender == receiver:
                continue
            key = (sender, receiver)
            if key in self._beacons_in_flight:
                launched = True  # already probing; its arrival re-arms us
                continue
            sender_clock = self._sender_promise(self.engine.procs[sender])
            if sender_clock - 1 <= self._floors[receiver].get(sender, -1):
                continue  # nothing new to learn from this sender yet
            self._beacons_in_flight.add(key)
            launched = True
            arrival = self.engine.network.delivery_time(
                sender, receiver, max(proc.time, self.engine.now), self.beacon_nbytes
            )
            self.engine.schedule_tool_event(
                arrival, self._make_beacon_callback(key, sender_clock, proc)
            )
        if not launched and receiver not in self._retry_pending:
            # No probe could help right now (sender clocks unchanged);
            # re-probe after a tick so progress elsewhere becomes visible.
            self._retry_pending.add(receiver)
            self.engine.schedule_tool_event(
                max(proc.time, self.engine.now) + self.beacon_retry_interval,
                self._make_retry_callback(proc),
            )

    def _make_retry_callback(self, proc):
        def retry(now: float) -> None:
            self._retry_pending.discard(proc.rank)
            if proc.pending_call is not None and self.engine is not None:
                self.engine._try_mf(proc, at_time=now)
                if proc.pending_call is not None:
                    self._check_stall(proc.rank)

        return retry

    def _check_stall(self, rank: int) -> None:
        """Raise :class:`ReplayStallError` once no event can ever release a
        parked rank (DESIGN.md §5.4); called after ``rank``'s retry tick
        left it parked.

        A stall needs a quiet job: the engine holds only tool callbacks and
        every live rank is parked on an assist-less group. Then no rank
        runs, so no new message exists until some group becomes certain,
        and certainty only grows with the channel floors. Two shapes are
        final:

        * *ladder* — no parked group could become certain even with every
          floor at infinity (:meth:`CallsiteReplayState.never_certain`);
        * *frozen* — no beacon is in flight, and a tick of every rank with
          a retry pending, each starting from the state the previous one
          left, changed no chunk, cursor, pool or floor: the next round
          repeats this one forever.
        """
        engine = self.engine
        parked = []
        for proc in engine.procs:
            if proc.done:
                continue
            call = proc.pending_call
            state = self._states[proc.rank].get(call.callsite) if call else None
            if state is None or state.chunk is None or state.senders is not None:
                self._quiet_signature = None
                return
            parked.append(state)
        if not engine.only_tool_events_pending():
            self._quiet_signature = None
            return
        if all(state.never_certain() for state in parked):
            raise self._stall(
                "every parked group stays uncertain even with every channel "
                "floor at infinity"
            )
        if self._beacons_in_flight:
            self._quiet_signature = None
            return
        signature = (
            tuple(
                (s.chunk_index, s.cursor, s.pooled_count, len(s.overflow))
                for s in self.callsite_states()
            ),
            tuple(tuple(floors.items()) for floors in self._floors.values()),
        )
        if signature != self._quiet_signature:
            self._quiet_signature = signature
            self._quiet_ranks = set()
            return
        self._quiet_ranks.add(rank)
        if self._retry_pending <= self._quiet_ranks:
            raise self._stall(
                "a round of retries over every parked rank changed no chunk, "
                "cursor, pool or channel floor"
            )

    def _stall(self, detail: str) -> ReplayStallError:
        delivered = sum(state.delivered_events for state in self.callsite_states())
        return ReplayStallError(delivered, detail)

    def _sender_promise(self, sender_proc: SimProcess) -> int:
        """Lower bound on the clock any *future* send of this rank carries.

        Three regimes, each a sound promise the sender's tool could make:

        * program finished — it never sends again (only in-flight messages
          remain, and FIFO orders them before the beacon): infinity;
        * parked in an MF call — its next send happens only after the
          pending group delivers, and a delivery raises its clock to at
          least ``delivered_clock + 1``. The smallest clock that delivery
          can carry is bounded by the smaller of its pool's smallest
          undelivered key and its own certainty horizon;
        * running — it could send right now with its current clock.
        """
        if sender_proc.done:
            return _CLOCK_INFINITY
        current = sender_proc.clock.value
        call = sender_proc.pending_call
        if call is None:
            return current
        promise = current + 1
        state = self._states[sender_proc.rank].get(call.callsite)
        if (
            state is not None
            and state.chunk is not None
            and state.cursor < state.chunk.num_events
        ):
            # The sender's next delivery is the event at reference slot
            # i* = order[cursor]. Among the chunk's remaining events it is
            # the m-th smallest, where m counts remaining slots <= i*.
            # Replacing every missing event's unknown key by the certainty
            # horizon (a pointwise lower bound) makes the m-th order
            # statistic of the merged multiset a sound lower bound on the
            # delivered clock.
            i_star = state.order[state.cursor]
            delivered_below = sum(
                1 for slot in state.order[: state.cursor] if slot < i_star
            )
            m = i_star + 1 - delivered_below
            pooled = sorted(state.pooled_clocks())
            horizon = state.certainty_horizon()
            if horizon is None:
                merged = pooled
            else:
                missing = sum(q for q in state.quota.values() if q > 0)
                merged = sorted(pooled + [horizon[0]] * missing)
            if 0 < m <= len(merged):
                promise = max(promise, merged[m - 1] + 1)
        return promise

    def _make_beacon_callback(self, key: tuple[int, int], sender_clock: int, proc):
        def deliver_beacon(now: float) -> None:
            sender, receiver = key
            self._beacons_in_flight.discard(key)
            floors = self._floors[receiver]
            # future sends from `sender` carry clocks >= sender_clock, so
            # the highest-impossible-clock floor is sender_clock - 1.
            if floors.get(sender, -1) < sender_clock - 1:
                floors[sender] = sender_clock - 1
            if proc.pending_call is not None and self.engine is not None:
                self.engine._try_mf(proc, at_time=now)

        return deliver_beacon

    # -- diagnostics -----------------------------------------------------------------

    def undelivered_summary(self) -> dict[tuple[int, str], int]:
        """Remaining recorded events per callsite (0 everywhere on success)."""
        out = {}
        for state in self.callsite_states():
            remaining = sum(c.num_events for c in state.pending_chunks)
            if state.chunk is not None:
                remaining += state.chunk.num_events - state.cursor
            out[(state.rank, state.callsite)] = remaining
        return out

    def delivered_summary(self) -> dict[tuple[int, str], tuple[int, int]]:
        """Per (rank, callsite): (events delivered, events recorded).

        The salvage path uses this to report where a recovered record
        ends: a truncated prefix shows delivered < recorded at the
        callsite whose tail was dropped.
        """
        return {
            key: (self._recorded[key] - remaining, self._recorded[key])
            for key, remaining in self.undelivered_summary().items()
        }
