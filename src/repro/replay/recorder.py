"""Record mode: the CDC recording controller.

Hooks the PMPI seam (:class:`~repro.sim.pmpi.MFController`) and, for every
MF outcome, feeds the per-``(rank, callsite)`` record-table builder
(Section 4.4 MF identification). Builders flush every ``chunk_events``
matched receives (Section 3.5), each flush CDC-encoding a chunk into the
:class:`~repro.replay.chunk_store.RecordArchive`.

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
from typing import Any, Mapping, Sequence

from repro.core.columnar import ColumnarTable, ColumnarTableBuilder, encode_table
from repro.core.compression import ZLIB_LEVEL
from repro.core.events import MFOutcome, outcomes_to_rows
from repro.core.formats import serialize_cdc_chunks, serialize_raw_rows
from repro.core.record_table import RecordTable, RecordTableBuilder
from repro.replay.chunk_store import RecordArchive
from repro.replay.durable_store import DurableArchiveWriter, RetryPolicy
from repro.replay.parallel_encoder import ParallelChunkEncoder, advance_ceilings
from repro.replay.shard_encoder import ShardedChunkEncoder
from repro.replay.supervisor import EncoderHealthReport, SupervisedEncoder
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
    builders: dict[str, RecordTableBuilder | ColumnarTableBuilder] = field(
        default_factory=dict
    )
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
        parallel_workers: int = 0,
        parallel_backend: str = "thread",
        store: DurableArchiveWriter | None = None,
        columnar: bool = True,
        supervised: bool = True,
        encoder_retry: RetryPolicy | None = None,
        batch_deadline: float | None = None,
        encoder_chaos=None,
        encoder_opts: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__()
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.chunk_events = chunk_events
        self.cost_model = cost_model if cost_model is not None else cdc_cost_model()
        self.keep_outcomes = keep_outcomes
        self.replay_assist = replay_assist
        #: columnar order buffers (repro.core.columnar): identifier columns
        #: live in preallocated int64 arrays and encode without per-event
        #: object churn — byte-identical archives, much faster at scale.
        #: ``False`` restores the object builders (needed only for clocks
        #: beyond int64, which the simulator never produces).
        self.columnar = columnar
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
        #: opt-in parallel chunk encoding (Section 4.2 consumer fan-out):
        #: flushes submit to a worker pool and the archive fills at finalize,
        #: in flush order — chunk-for-chunk identical to the serial path.
        #: ``parallel_backend`` picks the pool: ``"thread"`` (shared
        #: interpreter, cheap submits) or ``"process"`` (GIL-free sharded
        #: encode over shared-memory columns, see repro.replay.shard_encoder).
        if parallel_workers < 0:
            raise ValueError(f"parallel_workers must be >= 0, got {parallel_workers}")
        if parallel_backend not in ("thread", "process"):
            raise ValueError(
                f"parallel_backend must be 'thread' or 'process', "
                f"got {parallel_backend!r}"
            )
        self._encoder = None
        #: crash-only supervision (repro.replay.supervisor) is the default
        #: for every parallel backend: worker loss, hung batches, and
        #: segment failures are retried / quarantined / downgraded instead
        #: of aborting the recording. ``supervised=False`` keeps the bare
        #: PR-6 pools for benchmark baselines and pathology repros.
        if parallel_workers > 0:
            if supervised:
                self._encoder = SupervisedEncoder(
                    workers=parallel_workers,
                    backend=parallel_backend,
                    retry=encoder_retry,
                    batch_deadline=batch_deadline,
                    chaos=encoder_chaos,
                    **dict(encoder_opts or {}),
                )
            elif parallel_backend == "process":
                self._encoder = ShardedChunkEncoder(workers=parallel_workers)
            else:
                self._encoder = ParallelChunkEncoder(workers=parallel_workers)
        #: filled at finalize when the supervised encoder ran: what
        #: supervision had to do (None on serial/unsupervised paths).
        self.encoder_health: EncoderHealthReport | None = None
        self._inflight: list[int] = []  # rank of each submitted flush

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
            builder_cls = (
                ColumnarTableBuilder if self.columnar else RecordTableBuilder
            )
            builder = state.builders[outcome.callsite] = builder_cls(
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
        return state.cost.charge(proc.time, rows)

    def finalize(self, procs: Sequence[SimProcess]) -> None:
        for rank, state in self.ranks.items():
            for builder in state.builders.values():
                if builder.dirty:
                    self._flush(rank, builder)
        if self._encoder is not None:
            with span("record.drain", inflight=len(self._inflight)):
                chunks = self._encoder.drain()
            for rank, chunk in zip(self._inflight, chunks):
                self._store_chunk(rank, chunk)
            self._inflight.clear()
            if isinstance(self._encoder, SupervisedEncoder):
                self.encoder_health = self._encoder.health()
                if self.encoder_health.degraded:
                    # ride the manifest so `repro stats` (and the ledger)
                    # can see the degradation from the archive alone.
                    self.archive.meta["encoder_health"] = (
                        self.encoder_health.to_json()
                    )
            self._encoder.close()
        registry = get_registry()
        if registry.enabled:
            registry.counter("record.payload_bytes").add(self.data_replay_bytes())
            total_stall = 0.0
            for _, (stall, occupancy) in self.queue_stats().items():
                total_stall += stall
                registry.gauge("record.queue_occupancy_max").set_max(occupancy)
            registry.gauge("record.queue_stall_seconds").set(total_stall)

    def _flush(
        self, rank: int, builder: RecordTableBuilder | ColumnarTableBuilder
    ) -> None:
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

    def _flush_table(self, rank: int, table: RecordTable | ColumnarTable) -> None:
        ceilings = self.ranks[rank].ceilings.setdefault(table.callsite, {})
        if self._encoder is not None:
            # parallel path: snapshot the ceilings into the task, advance
            # them synchronously from the table's epoch line (cheap), and
            # let the pool encode; the archive fills at finalize in flush
            # order, so layout matches the serial path exactly.
            self._encoder.submit(
                table, replay_assist=self.replay_assist, prior_ceilings=ceilings
            )
            advance_ceilings(ceilings, table)
            self._inflight.append(rank)
            return
        chunk = encode_table(
            table, replay_assist=self.replay_assist, prior_ceilings=ceilings
        )
        for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
            if ceilings.get(sender, -1) < ceiling:
                ceilings[sender] = ceiling
        self._store_chunk(rank, chunk)

    def _store_chunk(self, rank: int, chunk) -> None:
        """Keep ``chunk`` in memory and on disk, with an instant trace
        marker per stored chunk (the monitor's epoch feed).

        The marker carries the chunk's standalone compressed size so the
        stream can flag per-chunk compression-ratio anomalies while the run
        is live: the length of the frame payload the store just wrote, or
        of the same bytes built here when there is no store.
        """
        self.archive.append(rank, chunk)
        stored = None if self.store is None else self.store.append(rank, chunk)
        if not get_registry().enabled:
            return
        if stored is None:
            stored = len(zlib.compress(serialize_cdc_chunks([chunk]), ZLIB_LEVEL))
        event(
            "record.chunk",
            rank=rank,
            callsite=chunk.callsite,
            events=chunk.num_events,
            stored_bytes=stored,
        )

    def encode_progress(self) -> int:
        """Encoder batches finished so far — feeds the progress watchdog.

        A recording wedged in ``drain()`` (hung worker, broken pool that
        somehow evades supervision) stops advancing this counter, which
        lets the watchdog convert the hang into a stall report instead of
        an indefinite wait.
        """
        if isinstance(self._encoder, SupervisedEncoder):
            return self._encoder.completed_batches
        return 0

    def abort(self) -> None:
        """Crash-path cleanup: kill encoder workers, release shm segments."""
        if isinstance(self._encoder, SupervisedEncoder):
            self._encoder.abort()
        elif self._encoder is not None:
            self._encoder.close()

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

    def __init__(
        self,
        nprocs: int,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        cost_model: RecordingCostModel | None = None,
        keep_outcomes: bool = True,
        replay_assist: bool = True,
        parallel_workers: int = 0,
        parallel_backend: str = "thread",
        store: DurableArchiveWriter | None = None,
        columnar: bool = True,
        supervised: bool = True,
        encoder_retry: RetryPolicy | None = None,
        batch_deadline: float | None = None,
        encoder_chaos=None,
        encoder_opts: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(
            nprocs,
            chunk_events=chunk_events,
            cost_model=cost_model if cost_model is not None else gzip_cost_model(),
            keep_outcomes=True,  # the raw format needs the full stream
            replay_assist=replay_assist,
            parallel_workers=parallel_workers,
            parallel_backend=parallel_backend,
            store=store,
            columnar=columnar,
            supervised=supervised,
            encoder_retry=encoder_retry,
            batch_deadline=batch_deadline,
            encoder_chaos=encoder_chaos,
            encoder_opts=encoder_opts,
        )

    def storage_bytes(self, rank: int) -> int:
        """gzip'd raw-format record size for one rank."""
        rows = list(outcomes_to_rows(self.ranks[rank].outcomes))
        return len(zlib.compress(serialize_raw_rows(rows), ZLIB_LEVEL))

    def total_storage_bytes(self) -> int:
        return sum(self.storage_bytes(r) for r in self.ranks)
