"""Core datatypes of the simulated MPI layer.

The simulator reproduces the slice of MPI semantics that CDC depends on:
point-to-point nonblocking messaging with wildcard receives, FIFO
per-sender channels, and the Test/Wait matching-function families. Payloads
are arbitrary Python objects; every message carries a piggybacked Lamport
clock (the PMPI layer of the paper attaches it with MPI datatypes; here it
is a first-class field).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

#: Wildcard source for receives (MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard tag for receives (MPI_ANY_TAG).
ANY_TAG = -1


@dataclass(frozen=True, slots=True)
class Status:
    """Completion status returned to the application (MPI_Status).

    ``clock`` exposes the piggybacked Lamport clock — a real PMPI tool keeps
    it internal, but surfacing it makes tests and analyses direct.
    """

    source: int
    tag: int
    clock: int


@dataclass(slots=True)
class Message:
    """One in-flight message.

    ``seq`` is a per-channel sequence number enforcing/checking FIFO
    delivery; ``clock`` is the piggybacked Lamport timestamp attached at
    send time (strictly increasing per sender). Slotted: the engine
    allocates one per send, so layout matters at paper-scale rank counts.

    ``nbytes`` is the payload size estimate
    (:func:`~repro.sim.network.payload_nbytes`), fixed once by
    :meth:`Engine.isend <repro.sim.engine.Engine.isend>`: the latency draw
    and the recorder's data-replay accounting read the same number instead
    of each walking the payload. Hand-built messages default to 0.
    """

    src: int
    dst: int
    tag: int
    payload: Any
    clock: int
    seq: int
    send_time: float = 0.0
    arrival_time: float = 0.0
    #: optional vector-clock piggyback (Section 4.3 ablation); None unless
    #: the engine runs with track_vector_clocks=True.
    vclock: tuple[int, ...] | None = None
    nbytes: int = 0

    @property
    def status(self) -> Status:
        return Status(self.src, self.tag, self.clock)


class RequestState(enum.Enum):
    PENDING = "pending"
    COMPLETED = "completed"  # matched at MPI level, not yet delivered to app
    DELIVERED = "delivered"  # returned to the application by an MF call
    INACTIVE = "inactive"  # freed / never initialized


_request_ids = itertools.count()


@dataclass(eq=False, slots=True)
class Request:
    """A nonblocking operation handle (MPI_Request).

    Receive requests move PENDING → COMPLETED when a message matches at the
    MPI level, and COMPLETED → DELIVERED when a matching function returns
    them to the application — the separation that makes application-level
    out-of-order observation (Figure 3) possible. Send requests complete
    immediately (buffered-send semantics).
    """

    owner: int
    is_recv: bool
    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    state: RequestState = RequestState.PENDING
    message: Message | None = None
    completion_time: float = 0.0
    completion_seq: int = 0
    req_id: int = field(default_factory=_request_ids.__next__)

    @property
    def completed(self) -> bool:
        return self.state is RequestState.COMPLETED

    @property
    def delivered(self) -> bool:
        return self.state is RequestState.DELIVERED

    def __hash__(self) -> int:
        return self.req_id
