"""Causal cross-rank tracing: link sends to their matched receives.

The paper's piggybacked Lamport clocks give every message a globally
unique identity for free: channels are FIFO and a sender's attached
clocks strictly increase, so ``(sender rank, clock)`` names exactly one
message (Definition 4). A :class:`ColumnarFlowRecorder` captures both
ends of that identity as the engine runs — ``MPI_Isend`` on the sender
(:meth:`~repro.sim.engine.Engine.isend` computes the clock) and the
matching-function completion on the receiver (the PMPI seam reports every
matched :class:`~repro.core.events.ReceiveEvent`) — and
:func:`merged_timeline` joins them into one Chrome ``trace_event`` JSON
with **flow events** (``ph: s``/``f`` arrows) from each send slice to the
delivery slice that consumed it, across ranks and across runs.

Timestamps are *virtual* microseconds: the simulator's clock is fully
deterministic, so the merged timeline of a seeded workload is
byte-reproducible — the golden-file test pins it without any fake wall
clock. Load the output in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_; each run is a process group, each
rank a named thread, and every matched wildcard receive has at least one
arrow pointing at the send that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

__all__ = [
    "ColumnarFlowRecorder",
    "FlowMatchStats",
    "merged_timeline",
    "write_timeline",
]

#: visual slice widths (virtual µs) for point-like operations.
_SEND_DUR_US = 0.2
_RECV_DUR_US = 0.5


@dataclass(frozen=True)
class FlowMatchStats:
    """How many send/receive pairs a recorder correlated."""

    label: str
    sends: int
    receives: int
    matched: int
    #: sends whose (clock, sender) identity an earlier send already took.
    #: Always 0 for a healthy engine: Definition 4 makes the piggybacked
    #: clocks strictly increasing per sender.
    duplicate_sends: int

    @property
    def match_rate(self) -> float:
        return self.matched / self.receives if self.receives else 0.0

    def describe(self) -> str:
        text = (
            f"{self.label}: {self.sends} sends, {self.receives} matched "
            f"receives, {self.matched} flow arrows "
            f"({100 * self.match_rate:.1f}% correlated)"
        )
        if self.duplicate_sends:
            text += f", {self.duplicate_sends} duplicate send identities"
        return text


class ColumnarFlowRecorder:
    """Collects send and delivery endpoints for one engine run, as columns.

    Attach via ``Engine(flow_recorder=...)`` or the sessions' ``flow=``
    parameter; the engine calls :meth:`on_send`, the PMPI seam calls
    :meth:`on_delivery`. Every endpoint lands in grow-by-doubling
    int64/float64 columns (:class:`~repro.core.columnar.GrowColumn`), no
    Python object per event. This is what makes ``repro explain`` viable
    at paper scale: a 256-rank, million-event run is one list extend per
    endpoint during capture (endpoints are staged flat and moved into the
    columns a block at a time, or when a column is read), and the
    critical-path analysis then runs vectorized passes over the views —
    the same columnar discipline the CDC encoder uses for its identifier
    columns.

    Callsite strings are interned to dense ids (``callsites[id]`` /
    ``kinds[id]``), so per-callsite attribution is a ``bincount``, not a
    dict of strings.
    """

    #: staged list entries (5 per endpoint) that trigger a move into the columns.
    STAGE_ENTRIES = 5 * 4096

    def __init__(self, label: str = "run") -> None:
        # lazy: repro.core imports repro.obs for its span instrumentation,
        # so the obs package must not import core back at module level.
        from repro.core.columnar import GrowColumn

        self.label = label
        self._send_columns = (
            GrowColumn(),  # src
            GrowColumn(),  # dst
            GrowColumn(),  # tag
            GrowColumn(),  # clock
            GrowColumn(dtype=float),  # t
        )
        self._recv_columns = (
            GrowColumn(),  # rank
            GrowColumn(),  # callsite id
            GrowColumn(),  # sender
            GrowColumn(),  # clock
            GrowColumn(dtype=float),  # t
        )
        #: endpoints not yet in the columns, flat and in column order
        #: (``src, dst, tag, clock, t, src, ...``): a hook costs one list
        #: extend, and a stride slice per column moves a whole block.
        self._send_stage: list = []
        self._recv_stage: list = []
        self.callsites: list[str] = []
        self.kinds: list[str] = []
        self._callsite_ids: dict[tuple[str, str], int] = {}

    # -- engine hooks --------------------------------------------------------

    def on_send(self, src: int, dst: int, tag: int, clock: int, t: float) -> None:
        stage = self._send_stage
        stage += (src, dst, tag, clock, t)
        if len(stage) >= self.STAGE_ENTRIES:
            self._unstage(stage, self._send_columns)

    def on_delivery(
        self,
        rank: int,
        callsite: str,
        kind: str,
        t: float,
        events: Sequence[Any],
    ) -> None:
        """Record matched receives (anything with ``.rank`` and ``.clock``).

        Duck-typed on :class:`~repro.core.events.ReceiveEvent` rather than
        importing it — ``repro.core`` imports ``repro.obs`` for its span
        instrumentation, so the obs package must not import back.
        """
        cs = self._callsite_ids.get((callsite, kind))
        if cs is None:
            cs = self._callsite_ids[(callsite, kind)] = len(self.callsites)
            self.callsites.append(callsite)
            self.kinds.append(kind)
        stage = self._recv_stage
        for ev in events:
            stage += (rank, cs, ev.rank, ev.clock, t)
        if len(stage) >= self.STAGE_ENTRIES:
            self._unstage(stage, self._recv_columns)

    @staticmethod
    def _unstage(stage: list, columns) -> None:
        for i, column in enumerate(columns):
            column.extend(stage[i::5])
        stage.clear()

    # -- columns (reading one moves what is staged in first) -------------------

    def _sends(self, i: int):
        if self._send_stage:
            self._unstage(self._send_stage, self._send_columns)
        return self._send_columns[i]

    def _receives(self, i: int):
        if self._recv_stage:
            self._unstage(self._recv_stage, self._recv_columns)
        return self._recv_columns[i]

    send_src = property(lambda self: self._sends(0))
    send_dst = property(lambda self: self._sends(1))
    send_tag = property(lambda self: self._sends(2))
    send_clock = property(lambda self: self._sends(3))
    send_t = property(lambda self: self._sends(4))
    recv_rank = property(lambda self: self._receives(0))
    recv_callsite = property(lambda self: self._receives(1))
    recv_sender = property(lambda self: self._receives(2))
    recv_clock = property(lambda self: self._receives(3))
    recv_t = property(lambda self: self._receives(4))

    # -- correlation ---------------------------------------------------------

    @property
    def num_sends(self) -> int:
        return len(self.send_src)

    @property
    def num_receives(self) -> int:
        return len(self.recv_rank)

    def send_keys(self):
        """Combined ``clock * K + src`` identity keys (K covers every rank)."""
        import numpy as np

        k = self._key_base()
        return self.send_clock.values * k + self.send_src.values, np.int64(k)

    def _key_base(self) -> int:
        src = self.send_src.values
        sender = self.recv_sender.values
        hi = 0
        if src.shape[0]:
            hi = max(hi, int(src.max()))
        if sender.shape[0]:
            hi = max(hi, int(sender.max()))
        return hi + 2

    def duplicate_send_count(self) -> int:
        """Sends whose (clock, sender) identity repeats (should be 0)."""
        import numpy as np

        keys, _ = self.send_keys()
        if keys.shape[0] < 2:
            return 0
        return int(keys.shape[0] - np.unique(keys).shape[0])

    def match_stats(self) -> FlowMatchStats:
        import numpy as np

        keys, k = self.send_keys()
        recv_keys = self.recv_clock.values * k + self.recv_sender.values
        matched = int(np.isin(recv_keys, keys).sum()) if recv_keys.shape[0] else 0
        return FlowMatchStats(
            label=self.label,
            sends=self.num_sends,
            receives=self.num_receives,
            matched=matched,
            duplicate_sends=self.duplicate_send_count(),
        )


def _us(t: float) -> float:
    return round(t * 1e6, 3)


def merged_timeline(
    recorders: Sequence[Any],
    flow_category: str = "flow",
    critical_path: Sequence[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Join one or more runs into a single causally-linked Chrome trace.

    Each run — a :class:`ColumnarFlowRecorder` or a
    :class:`~repro.analysis.columns.RehydratedRun` — becomes a process group
    (``pid`` = position + 1, named by its label) whose threads are the
    ranks; sends and deliveries render as short complete slices, and every
    receive whose ``(clock, sender)`` identity appears among the run's
    sends gets a flow-event pair (``ph: "s"`` at the send, ``ph: "f"`` with
    ``bp: "e"`` at the delivery). Flow ids are unique across the whole
    merged trace, so record and replay arrows never alias; on a duplicate
    identity the first post takes the id (channels are FIFO).

    ``critical_path`` highlights a run's longest weighted causal chain as
    a distinct track: a dedicated "critical path" process group whose
    threads are the ranks the path visits, one slice per path edge. Each
    entry is plain data so the exporter stays import-free of the analysis
    layer: ``{"rank", "t0_us", "t1_us", "kind"}`` plus optional
    ``"callsite"`` / ``"from_rank"`` args (see
    :meth:`repro.analysis.critical_path.CriticalPathResult.timeline_slices`).
    """
    # lazy, for the same core->obs->core reason as GrowColumn above.
    from repro.analysis.columns import RehydratedRun

    events: list[dict[str, Any]] = []
    metadata: list[dict[str, Any]] = []
    next_flow_id = 1
    runs = [r if isinstance(r, RehydratedRun) else RehydratedRun.from_flow(r) for r in recorders]
    for pid, run in enumerate(runs, start=1):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": run.label},
            }
        )
        sends = [getattr(run, "send_" + c).tolist() for c in ("src", "dst", "tag", "clock", "t")]
        receives = [
            getattr(run, "recv_" + c).tolist() for c in ("rank", "cs", "sender", "clock", "t")
        ]
        for rank in sorted({*sends[0], *receives[0]}):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": rank,
                    "args": {"name": f"rank {rank}"},
                }
            )
        flow_ids: dict[tuple[int, int], int] = {}
        matched_keys = set(zip(receives[3], receives[2]))
        for src, dst, tag, clock, t in zip(*sends):
            ts = _us(t)
            events.append(
                {
                    "name": f"isend → {dst}",
                    "cat": "send",
                    "ph": "X",
                    "ts": ts,
                    "dur": _SEND_DUR_US,
                    "pid": pid,
                    "tid": src,
                    "args": {"dst": dst, "tag": tag, "clock": clock},
                }
            )
            if (clock, src) in matched_keys:
                flow_id = flow_ids.setdefault((clock, src), next_flow_id)
                if flow_id == next_flow_id:
                    next_flow_id += 1
                events.append(
                    {
                        "name": "msg",
                        "cat": flow_category,
                        "ph": "s",
                        "id": flow_id,
                        "ts": ts,
                        "pid": pid,
                        "tid": src,
                        "args": {"clock": clock, "sender": src},
                    }
                )
        for rank, cs, sender, clock, t in zip(*receives):
            ts = _us(t)
            callsite = run.callsites[cs]
            events.append(
                {
                    "name": f"{run.kinds[cs]} @ {callsite}",
                    "cat": "recv",
                    "ph": "X",
                    "ts": ts,
                    "dur": _RECV_DUR_US,
                    "pid": pid,
                    "tid": rank,
                    "args": {
                        "sender": sender,
                        "clock": clock,
                        "callsite": callsite,
                    },
                }
            )
            flow_id = flow_ids.get((clock, sender))
            if flow_id is not None:
                events.append(
                    {
                        "name": "msg",
                        "cat": flow_category,
                        "ph": "f",
                        "bp": "e",
                        "id": flow_id,
                        "ts": ts,
                        "pid": pid,
                        "tid": rank,
                        "args": {"clock": clock, "sender": sender},
                    }
                )
    path_edges = 0
    if critical_path:
        pid = len(runs) + 1
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "critical path"},
            }
        )
        for rank in sorted({int(seg["rank"]) for seg in critical_path}):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": rank,
                    "args": {"name": f"rank {rank}"},
                }
            )
        for seg in critical_path:
            t0 = float(seg["t0_us"])
            t1 = float(seg["t1_us"])
            args = {
                k: seg[k]
                for k in ("kind", "callsite", "from_rank")
                if seg.get(k) is not None
            }
            events.append(
                {
                    "name": str(seg["kind"]),
                    "cat": "critical_path",
                    "ph": "X",
                    "ts": round(t0, 3),
                    "dur": round(max(t1 - t0, 0.0), 3),
                    "pid": pid,
                    "tid": int(seg["rank"]),
                    "args": args,
                }
            )
            path_edges += 1
    # one global timestamp order (flow starts before finishes on ties) —
    # what the exporter validator and Chrome's flow binding both expect.
    phase_order = {"s": 0, "X": 1, "t": 2, "f": 3}
    events.sort(key=lambda e: (e["ts"], phase_order.get(e["ph"], 1), e["pid"], e["tid"]))
    trace = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "runs": [run.label for run in runs],
            "flows": next_flow_id - 1,
        },
    }
    if critical_path is not None:
        trace["otherData"]["critical_path_edges"] = path_edges
    return trace


def write_timeline(
    recorders: Sequence[Any],
    path: str,
    critical_path: Sequence[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Write the merged timeline JSON; returns the trace object."""
    from repro.analysis.report import write_json

    return write_json(merged_timeline(recorders, critical_path=critical_path), path)
