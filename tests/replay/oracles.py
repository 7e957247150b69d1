"""Reference implementations the replayer is checked against.

These are *oracles*: code that used to be the production path and now
exists only so tests can assert a faster replacement gives the same
answer. They live under ``tests/`` on purpose — nothing on the import
path may call them, and they share no code with what they check (the
``DeliveryMode`` enum, a pair of names, is the one thing imported from it).
"""

from __future__ import annotations

import enum
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.events import ReceiveEvent
from repro.core.permutation import decode_permutation
from repro.core.pipeline import CDCChunk
from repro.errors import RecordFormatError, ReplayDivergence
from repro.obs import get_registry
from repro.replay.replayer import DeliveryMode
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState

from tests.core.oracles import assist_occurrence_indices_oracle as assist_occurrence_indices


def filter_accepts(req: Request, msg: Message) -> bool:
    """Would this receive request's (source, tag) filter accept ``msg``?"""
    if not req.is_recv:
        return False
    if req.source != ANY_SOURCE and req.source != msg.src:
        return False
    if req.tag != ANY_TAG and req.tag != msg.tag:
        return False
    return True


def assign_slots_oracle(
    requests: Sequence[Request], messages: Sequence[Message]
) -> list[Request] | None:
    """``ReplayController._assign_slots`` as it stood before the
    first-descent rewrite: per message, sort the accepting slots
    specific-first, then a recursive backtracking bipartite matching.

    The body is that method verbatim; only the signature differs (it took
    the call and looked ``messages`` up in the callsite pool itself).
    """
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


# ---------------------------------------------------------------------------
# The callsite decoder as it stood before the per-sender message queues:
# arrivals become ``ReceiveEvent``s, messages sit in a ``(clock, sender)``
# keyed ``pool``, and a call asks ``peek()`` what to do and then commits it
# with ``consume_unmatched`` / ``consume_group``. Everything from here to
# the end of the file is that code verbatim; only the class is renamed (the
# ``DeliveryMode`` enum is the production one, so tests pass one value to both).
# It reads chunks as the encoder of its day wrote them: an assist chunk's
# ``diff`` is against Definition 6's clock order and its quota is the stored
# ``sender_counts`` — feed it ``tests/core/oracles.py::encode_chunk_oracle``'s
# chunks, with the slot ranking kept beside that encoder.
# ---------------------------------------------------------------------------


def groups_from_with_next(with_next_indices: Sequence[int], n: int) -> list[int]:
    """Per observed index, the (inclusive) end index of its delivery group."""
    ends = list(range(n))
    for i in sorted(with_next_indices, reverse=True):
        if 0 <= i < n - 1:
            ends[i] = ends[i + 1]
    return ends


#: floor value used when a sender can provably never send again.
_CLOCK_INFINITY = 1 << 62


class _Peek(enum.Enum):
    UNMATCHED = "unmatched"
    GROUP = "group"
    BLOCKED = "blocked"
    EXHAUSTED = "exhausted"


@dataclass
class CallsiteReplayStateOracle:
    """Decoder + delivery gate for one (rank, callsite) record stream."""

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
    order: list[int] = field(default_factory=list)
    #: the schedule, laid out once per chunk at activation — indexed by
    #: observed position, so a call only compares and pops.
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
    #: assist chunks: per sender, its chunk arrivals in feed (= clock) order.
    arrived_per_sender: dict[int, list[ReceiveEvent]] = field(default_factory=dict)
    quota: dict[int, int] = field(default_factory=dict)
    #: assist-less chunks: members in reference order so far, sorted by
    #: (clock, sender) — what the certainty prefix is measured on.
    arrived_sorted: list[tuple[tuple[int, int], ReceiveEvent]] = field(
        default_factory=list
    )
    #: pooled message payloads for arrived events, keyed by (clock, sender).
    pool: dict[tuple[int, int], Message] = field(default_factory=dict)
    #: per-sender clock of the last event fed into the *active* chunk
    #: (reset at activation; within a chunk a sender's members arrive in
    #: clock order, so this doubles as a regression check and LMC floor).
    last_clock_by_sender: dict[int, int] = field(default_factory=dict)
    #: arrivals beyond the active chunk's quota, for later chunks.
    overflow: deque[tuple[ReceiveEvent, Message]] = field(default_factory=deque)
    #: (rank, clock) pairs claimed by *later* chunks' boundary exceptions —
    #: arrivals that must not be fed into the active chunk even though its
    #: quota and epoch would accept them (DESIGN.md §5.2).
    claimed_later: set[tuple[int, int]] = field(default_factory=set)
    delivered_events: int = 0
    #: virtual time at which this callsite first reported BLOCKED since its
    #: last delivery (telemetry: per-callsite replay wait time).
    blocked_since: float | None = None

    def __post_init__(self) -> None:
        for chunk in self.pending_chunks:
            self.claimed_later.update(chunk.boundary_exceptions)
        self._activate_next()

    # -- chunk lifecycle ------------------------------------------------------

    def _activate_next(self) -> None:
        """Make the next chunk active and lay its schedule out.

        Everything a call needs to know about the chunk is derived here,
        once: the permutation is decoded a single time and shared with the
        occurrence ranking, and groups and unmatched runs become lists
        indexed by observed position.
        """
        if not self.pending_chunks:
            self.chunk = None
            return
        chunk = self.pending_chunks.popleft()
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
        # this chunk's boundary exceptions are now *its own* members
        self.claimed_later.difference_update(chunk.boundary_exceptions)
        self.order = decode_permutation(chunk.diff)
        self.senders = senders
        self.occurrence = (
            [] if senders is None else assist_occurrence_indices(chunk, self.order)
        )
        self.group_end = groups_from_with_next(chunk.with_next_indices, n)
        self.unmatched_left = unmatched_left
        self.ceilings = chunk.epoch.max_clock_by_rank
        self.cursor = 0
        self.ready = 0
        self.arrived_per_sender = {}
        self.last_clock_by_sender = {}
        self.quota = dict(chunk.sender_counts)
        self.arrived_sorted = []
        backlog = list(self.overflow)
        self.overflow.clear()
        for event, msg in backlog:
            self.feed(event, msg)

    def _maybe_advance(self) -> None:
        chunk = self.chunk
        while (
            chunk is not None
            and self.cursor >= chunk.num_events
            and self.unmatched_left[chunk.num_events] == 0
        ):
            # note: earlier-chunk ceilings must NOT carry into the next
            # chunk's clock floors — boundary-exception events legitimately
            # sit below them; the per-chunk min-clock hints fill that role.
            self._activate_next()
            chunk = self.chunk

    # -- arrivals ----------------------------------------------------------------

    def feed(self, event: ReceiveEvent, msg: Message) -> None:
        """Pool a message observed for this callsite.

        Every membership and divergence check runs on every arrival,
        whichever path delivers it; only the bookkeeping differs — an
        assist chunk files the arrival under its sender, an assist-less
        one keeps the reference order the certainty prefix is read from.
        """
        if self.chunk is None:
            self.overflow.append((event, msg))
            return
        sender = event.rank
        clock = event.clock
        remaining = self.quota.get(sender, 0)
        if remaining <= 0 or (sender, clock) in self.claimed_later:
            self.overflow.append((event, msg))
            return
        prev = self.last_clock_by_sender.get(sender, -1)
        if prev >= 0 and clock <= prev:
            raise ReplayDivergence(
                self.rank,
                f"callsite {self.callsite!r}: per-sender clock order violated "
                f"({event} after clock {prev}); a sender's stream is split "
                "across callsites in a way the record cannot disambiguate",
            )
        ceiling = self.ceilings.get(sender)
        if ceiling is None or clock > ceiling:
            raise ReplayDivergence(
                self.rank,
                f"callsite {self.callsite!r}: arrival {event} exceeds the "
                f"chunk epoch line ({ceiling}); record/replay clock mismatch",
            )
        self.quota[sender] = remaining - 1
        key = (clock, sender)
        if self.senders is not None:
            arrived = self.arrived_per_sender.get(sender)
            if arrived is None:
                self.arrived_per_sender[sender] = [event]
            else:
                arrived.append(event)
        else:
            insort(self.arrived_sorted, (key, event))
        self.pool[key] = msg
        self.last_clock_by_sender[sender] = clock
        if self.global_floor.get(sender, -1) < clock:
            self.global_floor[sender] = clock
        registry = get_registry()
        if registry.enabled:
            registry.counter("replay.pooled_events").add()
            registry.gauge("replay.pool_occupancy").set_max(len(self.pool))

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

    # -- the script cursor ------------------------------------------------------------

    def peek(self) -> tuple[_Peek, list[ReceiveEvent]]:
        """What should the next MF call at this callsite do?"""
        self._maybe_advance()
        if self.chunk is None:
            return _Peek.EXHAUSTED, []
        start = self.cursor
        if self.unmatched_left[start] > 0:
            return _Peek.UNMATCHED, []
        if start >= self.chunk.num_events:  # pragma: no cover - advance handles
            return _Peek.EXHAUSTED, []
        end = self.group_end[start]
        senders = self.senders
        if senders is not None:
            # deterministic identification: position p is the k-th arrival
            # from its recorded sender. Arrivals only accumulate within a
            # chunk, so the check resumes at the position it last blocked on.
            occurrence = self.occurrence
            arrived = self.arrived_per_sender
            pos = self.ready if self.ready > start else start
            while pos <= end:
                got = arrived.get(senders[pos])
                if got is None or len(got) < occurrence[pos]:
                    self.ready = pos
                    return _Peek.BLOCKED, []
                pos += 1
            self.ready = pos
            return _Peek.GROUP, [
                arrived[senders[p]][occurrence[p] - 1] for p in range(start, end + 1)
            ]
        certain = self._certain_count()
        events: list[ReceiveEvent] = []
        for pos in range(start, end + 1):
            ref_index = self.order[pos]
            if ref_index >= certain:
                return _Peek.BLOCKED, []
            events.append(self.arrived_sorted[ref_index][1])
        return _Peek.GROUP, events

    def consume_unmatched(self) -> None:
        self.unmatched_left[self.cursor] -= 1

    def consume_group(self, events: Sequence[ReceiveEvent]) -> list[Message]:
        """Commit a group delivery; returns the pooled messages in order."""
        messages = [self.pool.pop(e.key) for e in events]
        self.cursor += len(events)
        self.delivered_events += len(events)
        return messages
