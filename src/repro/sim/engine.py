"""Deterministic discrete-event engine driving the simulated MPI job.

Each rank runs as a generator coroutine with its own local virtual time;
the engine interleaves ranks through a single event heap keyed by
``(time, seq)``. All randomness flows through the seeded
:class:`~repro.sim.network.Network`, so a run is a pure function of
``(programs, network seed, controller)`` — which is exactly what lets the
test suite assert bit-identical record/replay behaviour.

Event kinds:

* ``resume`` — continue a rank's generator with a value;
* ``deliver`` — a message reaches its destination's mailbox (possibly
  completing a posted receive and re-arming a parked MF call).

Every yielded operation costs virtual time (``op_cost`` / ``mf_cost``), so
Test-polling loops always advance time and the simulation cannot livelock.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Sequence

from repro.errors import DeadlockError, SimulationError
from repro.obs import get_registry, span
from repro.sim.datatypes import Message, Request, RequestState
from repro.sim.network import Network, payload_nbytes
from repro.sim.pmpi import MFController
from repro.sim.process import Compute, MFCall, SimProcess

_RESUME = 0
_DELIVER = 1
_CALLBACK = 2


@dataclass
class SimStats:
    """Aggregate run statistics."""

    nprocs: int
    virtual_time: float = 0.0
    total_messages: int = 0
    total_mf_calls: int = 0
    total_events: int = 0
    per_rank_time: list[float] = field(default_factory=list)


class Engine:
    """Run an SPMD (or MPMD) program under a matching-function controller."""

    def __init__(
        self,
        nprocs: int,
        program: Callable | Sequence[Callable],
        network: Network | None = None,
        controller: MFController | None = None,
        op_cost: float = 2.0e-7,
        mf_cost: float = 5.0e-7,
        max_events: int = 50_000_000,
        track_vector_clocks: bool = False,
        flow_recorder=None,
    ) -> None:
        if nprocs <= 0:
            raise SimulationError("need at least one process")
        self.nprocs = nprocs
        self.network = network if network is not None else Network()
        self.controller = controller if controller is not None else MFController()
        self.controller.attach(self)
        self.network.piggyback_bytes = self.controller.piggyback_bytes()
        self.op_cost = op_cost
        self.mf_cost = mf_cost
        self.max_events = max_events

        programs = (
            list(program) if isinstance(program, (list, tuple)) else [program] * nprocs
        )
        if len(programs) != nprocs:
            raise SimulationError("one program per rank required")
        self.procs = [SimProcess(rank, prog) for rank, prog in enumerate(programs)]
        if not self.controller.reads_completions:
            for proc in self.procs:
                proc.mailbox.completion_log = None
        if track_vector_clocks:
            from repro.clocks.vector import VectorClock

            for proc in self.procs:
                proc.vector_clock = VectorClock(rank=proc.rank, nprocs=nprocs)

        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()
        self.stats = SimStats(nprocs)
        #: optional ColumnarFlowRecorder capturing send/delivery pairs for causal
        #: cross-rank tracing (see repro.obs.causal).
        self.flow_recorder = flow_recorder
        #: the session's MetricsStreamWriter (repro.obs.monitor), sampled at
        #: each step-timing block tick while telemetry is on; None = none.
        self.metrics_stream = None
        #: global simulation time = timestamp of the event being processed.
        self.now: float = 0.0

    # -- scheduling ---------------------------------------------------------

    def _push(self, time: float, kind: int, data: object) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, data))

    def schedule_tool_event(self, time: float, fn) -> None:
        """Schedule a controller-level callback (tool messages, beacons).

        Tool events never touch application mailboxes; they let the replay
        controller model side-channel traffic such as clock beacons.
        """
        self._push(time, _CALLBACK, fn)

    def only_tool_events_pending(self) -> bool:
        """True when every scheduled event is a tool callback: no message is
        in flight and no rank is runnable, so nothing the application does
        can change the job's state until a callback releases a rank."""
        return all(entry[2] == _CALLBACK for entry in self._heap)

    def isend(self, proc: SimProcess, dest: int, payload, tag: int) -> Request:
        """Non-blocking send: piggyback clock, schedule delivery, complete."""
        if not 0 <= dest < self.nprocs:
            raise SimulationError(f"bad destination rank {dest}")
        proc.time = send_time = proc.time + self.op_cost
        clock = proc.clock.on_send()
        vclock = (
            proc.vector_clock.on_send() if proc.vector_clock is not None else None
        )
        rank = proc.rank
        nbytes = payload_nbytes(payload)
        seq, arrival = self.network.post(rank, dest, send_time, nbytes)
        msg = Message(
            rank, dest, tag, payload, clock, seq, send_time, 0.0, vclock, nbytes
        )
        if self.flow_recorder is not None:
            self.flow_recorder.on_send(rank, dest, tag, clock, send_time)
        heapq.heappush(self._heap, (arrival, next(self._seq), _DELIVER, msg))
        self.stats.total_messages += 1
        req = Request(owner=rank, is_recv=False)
        req.state = RequestState.COMPLETED
        req.completion_time = send_time
        return req

    # -- main loop -----------------------------------------------------------

    #: events per sampled step-timing block (``sim.step_block_us``).
    STEP_SAMPLE_EVENTS = 1024

    def run(self) -> SimStats:
        """Execute until every rank's program returns."""
        registry = get_registry()
        if not registry.enabled:
            return self._run_loop()
        with span("sim.run", nprocs=self.nprocs) as sp:
            stats = self._run_loop()
            sp.set(events=stats.total_events, virtual_time=stats.virtual_time)
        registry.counter("sim.events").add(stats.total_events)
        registry.counter("sim.messages").add(stats.total_messages)
        registry.counter("sim.mf_calls").add(stats.total_mf_calls)
        return stats

    def _run_loop(self) -> SimStats:
        controller = self.controller
        registry = get_registry()
        track = registry.enabled
        # handed over here, not in attach(): the attribute is assigned after
        # the controller attaches and may be replaced until the run starts
        controller.flow_recorder = self.flow_recorder
        controller.registry = registry if track else None
        for proc in self.procs:
            proc.start(self)
            self._push(0.0, _RESUME, (proc, None))
        remaining = self.nprocs

        if track:
            # sampled step timing: wall time per STEP_SAMPLE_EVENTS-event
            # block, so the histogram costs ~nothing per event.
            step_hist = registry.histogram("sim.step_block_us")
            block_t0 = perf_counter_ns()
            stream = self.metrics_stream

        # The dispatch loop runs once per simulation event — hundreds of
        # millions of times at paper-scale rank counts — so everything it
        # touches is hoisted into locals and the step histogram, which
        # tolerates batching, is fed once per STEP_SAMPLE_EVENTS block
        # instead of per event; so is the metrics stream.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        next_seq = self._seq.__next__
        procs = self.procs
        stats = self.stats
        evaluate = controller.evaluate
        on_blocked = controller.on_blocked
        mf_cost = self.mf_cost
        try_mf = self._try_mf
        max_events = self.max_events
        sample = self.STEP_SAMPLE_EVENTS
        count = stats.total_events
        tick = sample
        try:
            while heap and remaining:
                count += 1
                if track:
                    tick -= 1
                    if tick == 0:
                        tick = sample
                        now_ns = perf_counter_ns()
                        step_hist.observe((now_ns - block_t0) // 1000)
                        block_t0 = now_ns
                        if stream is not None:
                            stream.sample(count)
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {self.max_events} events; likely livelock"
                    )
                time, _, kind, data = heappop(heap)
                self.now = time
                if kind == _RESUME:
                    proc, value = data  # type: ignore[misc]
                    if time > proc.time:
                        proc.time = time
                    try:
                        op = proc.gen.send(value)
                    except StopIteration as stop:
                        proc.done = True
                        proc.result = stop.value
                        remaining -= 1
                        continue
                    cls = op.__class__
                    if cls is Compute:
                        heappush(
                            heap,
                            (proc.time + op.seconds, next_seq(), _RESUME, (proc, None)),
                        )
                    elif cls is MFCall:
                        # _try_mf, inlined for a call's first evaluation.
                        # pending_call is set first: a divergence raised in
                        # there is reported against the call the rank is in.
                        proc.pending_call = op
                        proc.mf_calls += 1
                        answer = evaluate(proc, op)
                        if answer is None:
                            on_blocked(proc, op)
                        else:
                            proc.pending_call = None
                            result, overhead = answer
                            heappush(
                                heap,
                                (
                                    proc.time + (mf_cost + overhead),
                                    next_seq(),
                                    _RESUME,
                                    (proc, result),
                                ),
                            )
                    else:
                        raise SimulationError(
                            f"rank {proc.rank} yielded {op!r}; expected Compute or MFCall"
                        )
                elif kind == _DELIVER:
                    msg: Message = data  # type: ignore[assignment]
                    proc = procs[msg.dst]
                    proc.mailbox.deliver(msg, time)
                    # Re-arm a parked MF call on *any* arrival: the replay
                    # controller also consumes unexpected messages (shadow-
                    # receive drains), not only request completions.
                    if proc.pending_call is not None:
                        try_mf(proc, at_time=time)
                    else:
                        # Batched delivery drain: a delivery to a rank with
                        # no parked MF call only mutates mailbox state — it
                        # schedules nothing and consults no controller — so
                        # a burst of such deliveries at the head of the heap
                        # can be consumed in a tight loop without the
                        # per-event dispatch overhead. Order is exactly what
                        # the outer loop would have produced.
                        while heap:
                            head = heap[0]
                            if head[2] != _DELIVER:
                                break
                            msg = head[3]
                            proc = procs[msg.dst]
                            if proc.pending_call is not None:
                                break
                            heappop(heap)
                            count += 1
                            time = head[0]
                            proc.mailbox.deliver(msg, time)
                        self.now = time
                else:
                    data(time)  # type: ignore[operator]
        finally:
            stats.total_events = count

        if remaining:
            blocked = [p.rank for p in self.procs if not p.done]
            raise DeadlockError(blocked)
        self.controller.finalize(self.procs)
        self.stats.per_rank_time = [p.time for p in self.procs]
        self.stats.virtual_time = max(self.stats.per_rank_time)
        self.stats.total_mf_calls = sum(p.mf_calls for p in self.procs)
        return self.stats

    def _try_mf(self, proc: SimProcess, at_time: float) -> None:
        """Ask the controller whether the pending MF call can return.

        The re-arm entry: deliveries and the replayer's beacon/retry
        callbacks come here (the main loop inlines a call's first try).
        """
        call = proc.pending_call
        assert call is not None
        controller = self.controller
        answer = controller.evaluate(proc, call)
        if answer is None:
            controller.on_blocked(proc, call)
            return  # stays parked; deliveries and tool events re-arm it
        proc.pending_call = None
        result, overhead = answer
        base = proc.time if proc.time > at_time else at_time
        self._push(base + (self.mf_cost + overhead), _RESUME, (proc, result))
