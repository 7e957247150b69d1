"""Record mode: the CDC recording controller.

Hooks the PMPI seam (:class:`~repro.sim.pmpi.MFController`) and, for every
MF outcome, feeds the per-``(rank, callsite)`` record-table builder
(Section 4.4 MF identification). Builders flush every ``chunk_events``
matched receives (Section 3.5), each flush CDC-encoding a chunk into the
:class:`~repro.replay.durable_store.RecordArchive`.

Recording overhead is charged through the
:class:`~repro.replay.cost_model.RecordingCostModel`: producer-side event
cost plus queue-saturation stalls, and the 8-byte clock piggyback on every
message — the asynchronous-recording architecture of Figure 11 in
virtual-time form.

``GzipRecordingController`` is the Figure 13/16 baseline: it captures the
same outcomes but stores the gzip'd raw quintuple format and uses the gzip
cost model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.columnar import ColumnarTable, ColumnarTableBuilder, encode_table
from repro.core.compression import ZLIB_LEVEL
from repro.core.events import MFOutcome, outcomes_to_rows
from repro.core.formats import serialize_raw_rows
from repro.replay.durable_store import DurableArchiveWriter, RecordArchive
from repro.replay.cost_model import (
    PerRankRecordingState,
    RecordingCostModel,
    cdc_cost_model,
    gzip_cost_model,
)
from repro.obs import event, get_registry, span
from repro.sim.datatypes import Message
from repro.sim.pmpi import MFController
from repro.sim.process import SimProcess

#: Matched events per chunk before a flush (paper: bounded memory footprint).
DEFAULT_CHUNK_EVENTS = 1024


@dataclass
class RankRecorderState:
    """Per-rank recording state: builders, queue, counters."""

    rank: int
    cost: PerRankRecordingState
    builders: dict[str, ColumnarTableBuilder] = field(default_factory=dict)
    outcomes: list[MFOutcome] = field(default_factory=list)
    #: per callsite, per sender: highest clock in already-flushed chunks —
    #: lets flushes mark boundary-exception events (DESIGN.md §5.2).
    ceilings: dict[str, dict[int, int]] = field(default_factory=dict)
    #: total payload bytes this rank received — what a data-replay tool
    #: (Section 7) would have to store *in addition to* the order.
    payload_bytes: int = 0


class RecordingController(MFController):
    """Natural MPI semantics + CDC recording of every MF outcome."""

    mode = "record"

    def __init__(
        self,
        nprocs: int,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        cost_model: RecordingCostModel | None = None,
        keep_outcomes: bool = True,
        replay_assist: bool = True,
        store: DurableArchiveWriter | None = None,
    ) -> None:
        super().__init__()
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.chunk_events = chunk_events
        self.cost_model = cost_model if cost_model is not None else cdc_cost_model()
        self.keep_outcomes = keep_outcomes
        self.replay_assist = replay_assist
        self.archive = RecordArchive(nprocs)
        #: optional durable writer: every flushed chunk also lands on
        #: storage as a CRC'd frame, immediately (Section 3.5 epoch lines
        #: make bounded in-run flushes possible; this is the code path a
        #: crash must not be able to corrupt beyond its last frame).
        self.store = store
        self.ranks: dict[int, RankRecorderState] = {
            r: RankRecorderState(r, PerRankRecordingState(self.cost_model))
            for r in range(nprocs)
        }

    # -- MFController hooks ---------------------------------------------------

    def piggyback_bytes(self) -> int:
        return self.cost_model.piggyback_bytes

    def on_outcome(
        self, proc: SimProcess, outcome: MFOutcome, messages: Sequence[Message]
    ) -> float:
        """Add the outcome to its callsite's builder; charge the cost model."""
        state = self.ranks[proc.rank]
        if self.keep_outcomes:
            state.outcomes.append(outcome)
        builder = state.builders.get(outcome.callsite)
        if builder is None:
            builder = state.builders[outcome.callsite] = ColumnarTableBuilder(
                outcome.callsite
            )
        builder.add(outcome)
        # one queue event per quintuple row this outcome produces
        rows = len(messages)
        if rows:
            for msg in messages:
                state.payload_bytes += msg.nbytes
            # only a matched receive moves the count a flush waits for
            if builder.num_events >= self.chunk_events:
                self._flush(proc.rank, builder)
        else:
            rows = 1  # an unmatched test
        cost = state.cost  # cost.charge(proc.time, rows), inlined: once per outcome
        cost.events_recorded += rows
        return cost.model.enqueue_cost * rows + cost.queue.enqueue(proc.time, rows)

    def finalize(self, procs: Sequence[SimProcess]) -> None:
        for rank, state in self.ranks.items():
            for builder in state.builders.values():
                if builder.dirty:
                    self._flush(rank, builder)
        registry = get_registry()
        if registry.enabled:
            registry.counter("record.payload_bytes").add(self.data_replay_bytes())
            total_stall = 0.0
            for _, (stall, occupancy) in self.queue_stats().items():
                total_stall += stall
                registry.gauge("record.queue_occupancy_max").set_max(occupancy)
            registry.gauge("record.queue_stall_seconds").set(total_stall)

    def _flush(self, rank: int, builder: ColumnarTableBuilder) -> None:
        table = builder.flush()
        if not (table.num_events or table.unmatched_runs):
            return
        registry = get_registry()
        if registry.enabled:
            registry.counter("record.flushes").add()
            with span(
                "record.flush",
                rank=rank,
                callsite=table.callsite,
                events=table.num_events,
            ):
                self._flush_table(rank, table)
            return
        self._flush_table(rank, table)

    def _flush_table(self, rank: int, table: ColumnarTable) -> None:
        ceilings = self.ranks[rank].ceilings.setdefault(table.callsite, {})
        chunk = encode_table(
            table, replay_assist=self.replay_assist, prior_ceilings=ceilings
        )
        for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
            if ceilings.get(sender, -1) < ceiling:
                ceilings[sender] = ceiling
        self._store_chunk(rank, chunk)

    def _store_chunk(self, rank: int, chunk) -> None:
        """Keep ``chunk`` in memory and on disk, with an instant trace
        marker per stored chunk (the monitor's epoch feed) carrying its
        frame's stored body length, so the stream can flag per-chunk
        compression-ratio anomalies live. The archive takes the sizes of
        the frame the store just wrote — or, with no store, builds that
        frame itself, once — so nothing later deflates the chunk again."""
        self.archive.append(rank, chunk)
        if self.store is not None:
            self.archive.note_frame(chunk, *self.store.append(rank, chunk))
        if not get_registry().enabled:
            return
        event(
            "record.chunk",
            rank=rank,
            callsite=chunk.callsite,
            events=chunk.num_events,
            stored_bytes=self.archive.frame_sizes(chunk)[1],
        )

    # -- results ---------------------------------------------------------------

    def outcomes_of(self, rank: int) -> list[MFOutcome]:
        return self.ranks[rank].outcomes

    def queue_stats(self) -> dict[int, tuple[float, float]]:
        """Per-rank (total stall seconds, max queue occupancy)."""
        return {
            r: (s.cost.queue.total_stall, s.cost.queue.max_occupancy)
            for r, s in self.ranks.items()
        }

    def data_replay_bytes(self) -> int:
        """Storage a data-replay tool (Section 7) would need: payloads on
        top of the order — the reason the paper rules data-replay out at
        scale."""
        return sum(s.payload_bytes for s in self.ranks.values())


class GzipRecordingController(RecordingController):
    """Order-replay recording with the gzip'd raw format (the baseline).

    Captures identical outcomes (so a gzip record is also replayable in
    principle) but accounts storage as zlib over the Figure 4 format and
    charges the cheaper gzip cost model.
    """

    mode = "record-gzip"

    def __init__(self, nprocs: int, **kwargs) -> None:
        if kwargs.get("cost_model") is None:
            kwargs["cost_model"] = gzip_cost_model()
        kwargs["keep_outcomes"] = True  # the raw format needs the full stream
        super().__init__(nprocs, **kwargs)

    def storage_bytes(self, rank: int) -> int:
        """gzip'd raw-format record size for one rank."""
        rows = list(outcomes_to_rows(self.ranks[rank].outcomes))
        return len(zlib.compress(serialize_raw_rows(rows), ZLIB_LEVEL))
