"""Rank coroutines and the application-facing API.

A simulated MPI program is a generator function ``program(ctx)`` run once
per rank. Non-blocking operations (``ctx.isend``, ``ctx.irecv``) are plain
calls; anything that may block or is a matching function is *yielded* to
the engine::

    def program(ctx):
        reqs = [ctx.irecv(source=ANY_SOURCE) for _ in range(k)]
        yield ctx.compute(1e-4)                  # local work
        res = yield ctx.testsome(reqs)           # MF call -> MFResult
        for msg in res.messages:
            ...
        yield from ctx.barrier()                 # collective helper

Matching functions are yielded even when semantically non-blocking (the
Test family) because in replay mode a Test recorded as matched must wait
for the recorded message — exactly the paper's replay behaviour.

Callsites: every MF call carries a callsite label (Section 4.4, MF
identification). By default it is derived from the caller's file:line,
mirroring the paper's call-stack analysis; pass ``callsite=`` to override.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

from repro.clocks.lamport import LamportClock
from repro.core.events import MFKind
from repro.errors import CommunicatorError
from repro.sim.communicator import MailBox
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request


@dataclass(frozen=True, slots=True)
class Compute:
    """Yieldable: advance this rank's local virtual time by ``seconds``."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("compute time must be >= 0")


@dataclass(slots=True, init=False, unsafe_hash=True)
class MFCall:
    """Yieldable: one matching-function invocation; never assigned to after
    ``__init__``, but not ``frozen``, which made it 2.5x as dear to build."""

    kind: MFKind
    requests: tuple[Request, ...]
    callsite: str
    #: does the set hold a receive request? a send request? Learned by the
    #: validation pass below, so no evaluation of the call scans the
    #: requests for either again.
    has_recv: bool = field(init=False, repr=False, compare=False)
    has_send: bool = field(init=False, repr=False, compare=False)

    def __init__(self, kind: MFKind, requests: tuple[Request, ...], callsite: str) -> None:
        if not requests:
            raise ValueError("MF call needs at least one request")
        has_recv = has_send = False
        for r in requests:
            if r.is_recv:
                has_recv = True
            else:
                has_send = True
        if has_recv and has_send and not kind.is_test:
            raise CommunicatorError(
                "wait-family calls over mixed send+receive request sets "
                "are not replayable (a send completion returned instead "
                "of a receive leaves no record); split the sets"
            )
        self.kind, self.requests, self.callsite = kind, requests, callsite
        self.has_recv, self.has_send = has_recv, has_send


@dataclass(frozen=True, slots=True)
class MFResult:
    """What an MF call returns to the application.

    ``indices`` point into the call's request tuple; ``messages`` align
    with the *receive* completions among them (send completions carry
    ``None``).
    """

    flag: bool
    indices: tuple[int, ...] = ()
    messages: tuple[Message | None, ...] = ()

    @property
    def message(self) -> Message | None:
        """The single completed message (single-request MF convenience)."""
        for m in self.messages:
            if m is not None:
                return m
        return None

    @property
    def payloads(self) -> tuple[Any, ...]:
        return tuple(m.payload for m in self.messages if m is not None)


class Ctx:
    """Per-rank handle given to program generators."""

    def __init__(self, proc: "SimProcess", engine) -> None:
        self._proc = proc
        self._engine = engine
        # workloads yield the same few compute costs millions of times;
        # Compute is frozen, so instances are shareable
        self._compute_cache: dict[float, Compute] = {}

    # -- identity ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._proc.rank

    @property
    def nprocs(self) -> int:
        return self._engine.nprocs

    @property
    def now(self) -> float:
        """This rank's local virtual time (seconds)."""
        return self._proc.time

    @property
    def clock(self) -> int:
        """Current Lamport clock value (diagnostics only)."""
        return self._proc.clock.value

    # -- point to point ---------------------------------------------------

    def isend(self, dest: int, payload: Any, tag: int = 0) -> Request:
        """Non-blocking send; completes immediately (buffered semantics)."""
        return self._engine.isend(self._proc, dest, payload, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a non-blocking receive (wildcards allowed)."""
        proc, engine = self._proc, self._engine
        if source != ANY_SOURCE and not 0 <= source < engine.nprocs:
            raise CommunicatorError(f"bad source rank {source}")
        req = Request(owner=proc.rank, is_recv=True, source=source, tag=tag)
        proc.mailbox.post_recv(req)
        proc.time += engine.op_cost
        return req

    def cancel(self, req: Request) -> None:
        """Cancel a still-pending posted receive."""
        self._proc.mailbox.cancel(req)

    # -- matching functions (yield these) ----------------------------------

    def test(self, req: Request, callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.TEST, (req,), callsite or self._auto_callsite())

    def testany(self, reqs: Sequence[Request], callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.TESTANY, tuple(reqs), callsite or self._auto_callsite())

    def testsome(self, reqs: Sequence[Request], callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.TESTSOME, tuple(reqs), callsite or self._auto_callsite())

    def testall(self, reqs: Sequence[Request], callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.TESTALL, tuple(reqs), callsite or self._auto_callsite())

    def wait(self, req: Request, callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.WAIT, (req,), callsite or self._auto_callsite())

    def waitany(self, reqs: Sequence[Request], callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.WAITANY, tuple(reqs), callsite or self._auto_callsite())

    def waitsome(self, reqs: Sequence[Request], callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.WAITSOME, tuple(reqs), callsite or self._auto_callsite())

    def waitall(self, reqs: Sequence[Request], callsite: str | None = None) -> MFCall:
        return MFCall(MFKind.WAITALL, tuple(reqs), callsite or self._auto_callsite())

    def compute(self, seconds: float) -> Compute:
        cache = self._compute_cache
        op = cache.get(seconds)
        if op is None:
            op = Compute(seconds)
            if len(cache) < 1024:  # bound for cost-per-call workloads
                cache[seconds] = op
        return op

    @staticmethod
    def _auto_callsite() -> str:
        """Default MF identification: the caller's file:line (Section 4.4)."""
        frame = sys._getframe(2)
        filename = frame.f_code.co_filename.rsplit("/", 1)[-1]
        return f"{filename}:{frame.f_lineno}"

    # -- blocking sugar (use with ``yield from``) ---------------------------

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, callsite: str | None = None
    ) -> Generator[MFCall, MFResult, Message]:
        """Blocking receive helper: ``msg = yield from ctx.recv(...)``."""
        req = self.irecv(source, tag)
        cs = callsite or f"recv@{self._auto_callsite()}"
        res = yield self.wait(req, callsite=cs)
        assert res.message is not None
        return res.message

    # -- collectives (deterministic binomial trees over p2p) ----------------

    def barrier(self, tag: int = -101) -> Generator[MFCall, MFResult, None]:
        """Synchronize all ranks (gather-to-0 then broadcast)."""
        yield from self.gather(None, tag=tag)
        yield from self.bcast(None, tag=tag - 1)

    def bcast(self, value: Any, root: int = 0, tag: int = -102):
        """Broadcast ``value`` from ``root``; returns the value everywhere."""
        size, rank = self.nprocs, (self.rank - root) % self.nprocs
        mask = 1
        while mask < size:
            if rank < mask:
                partner = rank + mask
                if partner < size:
                    self.isend((partner + root) % size, value, tag=tag)
            elif rank < 2 * mask:
                src = (rank - mask + root) % size
                msg = yield from self.recv(source=src, tag=tag, callsite=f"bcast:{tag}")
                value = msg.payload
            mask <<= 1
        return value

    def gather(self, value: Any, root: int = 0, tag: int = -103):
        """Gather values to ``root``; returns the list at root, None elsewhere.

        Binomial-tree reduction with deterministic, explicit sources: a
        *hidden deterministic* communication pattern in the paper's sense —
        it gets recorded (all MF calls are) but compresses to nearly
        nothing.
        """
        size, rank = self.nprocs, (self.rank - root) % self.nprocs
        items: list[tuple[int, Any]] = [(self.rank, value)]
        mask = 1
        while mask < size:
            if rank & mask:
                dest = (rank - mask + root) % size
                self.isend(dest, items, tag=tag)
                return None
            partner = rank + mask
            if partner < size:
                src = (partner + root) % size
                msg = yield from self.recv(source=src, tag=tag, callsite=f"gather:{tag}")
                items.extend(msg.payload)
            mask <<= 1
        if self.rank == root:
            items.sort(key=lambda kv: kv[0])
            return [v for _, v in items]
        return None

    def allreduce(self, value: Any, op: Callable = sum, tag: int = -104):
        """Reduce with ``op`` over per-rank values, result on every rank."""
        gathered = yield from self.gather(value, root=0, tag=tag)
        result = op(gathered) if self.rank == 0 else None
        result = yield from self.bcast(result, root=0, tag=tag - 1)
        return result

    def reduce(self, value: Any, op: Callable = sum, root: int = 0, tag: int = -106):
        """Reduce with ``op``; result only at ``root`` (None elsewhere)."""
        gathered = yield from self.gather(value, root=root, tag=tag)
        if self.rank == root:
            return op(gathered)
        return None

    def scatter(self, values, root: int = 0, tag: int = -107):
        """Distribute ``values[i]`` (given at root) to rank ``i``."""
        if self.rank == root:
            if values is None or len(values) != self.nprocs:
                raise CommunicatorError("scatter needs one value per rank")
            for r in range(self.nprocs):
                if r != root:
                    self.isend(r, values[r], tag=tag)
            return values[root]
        msg = yield from self.recv(source=root, tag=tag, callsite=f"scatter:{tag}")
        return msg.payload

    # -- sub-communicators ----------------------------------------------------

    def _global_rank(self, local_rank: int) -> int:
        """Translate a rank of *this* communicator to a world rank."""
        return local_rank

    def _world_ctx(self) -> "Ctx":
        return self

    def _alloc_context_id(self) -> int:
        """Deterministic communicator-context allocation.

        All ranks execute the same sequence of collective ``comm_split``
        calls, so a per-process counter yields identical ids everywhere —
        no communication needed (real MPI implementations agree on context
        ids similarly).
        """
        proc = self._world_ctx()._proc
        proc.next_context_id += 1
        return proc.next_context_id

    def comm_split(self, color, key: int | None = None, tag: int = -501):
        """Collective split (MPI_Comm_split): returns a SubComm or None.

        Ranks passing the same ``color`` form a new communicator, ordered
        by ``(key, rank in this communicator)``; ``color=None`` (the
        MPI_UNDEFINED analogue) returns None. Must be called by every rank
        of this communicator. Use with ``yield from``.
        """
        entry = (color, key if key is not None else self.rank, self.rank)
        entries = yield from self.gather(entry, root=0, tag=tag)
        groups = None
        if entries is not None:
            raw: dict = {}
            for local_rank, (c, k, _r) in enumerate(entries):
                if c is None:
                    continue
                raw.setdefault(c, []).append((k, local_rank))
            groups = {
                c: [lr for _k, lr in sorted(members)] for c, members in raw.items()
            }
        groups = yield from self.bcast(groups, root=0, tag=tag - 1)
        context_id = self._alloc_context_id()
        if color is None:
            return None
        from repro.sim.subcomm import SubComm

        members = [self._global_rank(lr) for lr in groups[color]]
        return SubComm(self._world_ctx(), members, context_id)

    def alltoall(self, values, tag: int = -108):
        """Personalized exchange: returns ``[values_j[self.rank] for j]``.

        Receives use wildcard sources with a deterministic reassembly by
        sender rank — recorded traffic with genuine arrival-order
        non-determinism, like the paper's asynchronous patterns.
        """
        if values is None or len(values) != self.nprocs:
            raise CommunicatorError("alltoall needs one value per rank")
        result: list[Any] = [None] * self.nprocs
        result[self.rank] = values[self.rank]
        reqs = [
            self.irecv(source=ANY_SOURCE, tag=tag) for _ in range(self.nprocs - 1)
        ]
        for r in range(self.nprocs):
            if r != self.rank:
                self.isend(r, (self.rank, values[r]), tag=tag)
        if reqs:
            res = yield self.waitall(reqs, callsite=f"alltoall:{tag}")
            for msg in res.messages:
                sender, value = msg.payload
                result[sender] = value
        return result


@dataclass
class SimProcess:
    """Engine-side state of one rank."""

    rank: int
    program: Callable[[Ctx], Generator]
    time: float = 0.0
    clock: LamportClock = field(default_factory=LamportClock)
    #: optional vector clock (engine track_vector_clocks=True); updated in
    #: lockstep with the Lamport clock for the Section 4.3 ablation.
    vector_clock: object | None = None
    mailbox: MailBox = None  # type: ignore[assignment]
    gen: Generator | None = None
    pending_call: MFCall | None = None
    done: bool = False
    #: value returned by the program generator (workload results)
    result: Any = None
    #: number of MF calls issued (diagnostics)
    mf_calls: int = 0
    #: communicator-context allocation counter (0 = COMM_WORLD)
    next_context_id: int = 0

    def __post_init__(self) -> None:
        if self.mailbox is None:
            self.mailbox = MailBox(self.rank)

    def start(self, engine) -> None:
        self.gen = self.program(Ctx(self, engine))
