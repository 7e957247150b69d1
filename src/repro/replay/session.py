"""High-level record / replay sessions (the Figure 2 tool flow).

::

    program = mcb.build_program(mcb.MCBConfig(nprocs=8, particles_per_rank=100, seed=7))

    baseline = BaselineSession(program, nprocs=8, network_seed=1).run()
    record   = RecordSession(program, nprocs=8, network_seed=1).run()
    replayed = ReplaySession(program, record, network_seed=2).run()

    assert replayed.outcomes == record.outcomes          # same receive order
    assert replayed.app_results == record.app_results    # same numerics

A *program* is the generator function of :mod:`repro.sim.process`; the
session owns engine construction, controller wiring, and result capture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.events import MFOutcome
from repro.errors import (
    RecordExhausted,
    ReplayDivergence,
    ReplayStallError,
    SimulationError,
)
from repro.obs import (
    ColumnarFlowRecorder,
    MetricsStreamWriter,
    NullRegistry,
    RunStats,
    TelemetryRegistry,
    build_run_stats,
    resolve_registry,
    span,
    use_registry,
)
from repro.replay.cost_model import RecordingCostModel
from repro.replay.diagnostics import StallReport, build_stall_report, replay_report
from repro.replay.durable_store import (
    DurableArchiveWriter,
    RecordArchive,
    RecoveryReport,
    RetryPolicy,
    StoredRun,
    open_run,
)
from repro.replay.recorder import (
    DEFAULT_CHUNK_EVENTS,
    GzipRecordingController,
    RecordingController,
)
from repro.replay.replayer import DeliveryMode, ReplayController
from repro.sim.engine import Engine, SimStats
from repro.sim.network import LatencyModel, Network
from repro.sim.pmpi import MFController


@dataclass
class RunResult:
    """Everything a session run produces."""

    mode: str
    nprocs: int
    stats: SimStats
    #: per-rank MF outcome streams (the observed receive orders)
    outcomes: dict[int, list[MFOutcome]] = field(default_factory=dict)
    #: per-rank values returned by the program generators
    app_results: dict[int, Any] = field(default_factory=dict)
    #: per-rank final Lamport clock values
    final_clocks: dict[int, int] = field(default_factory=dict)
    #: record mode only: the CDC archive
    archive: RecordArchive | None = None
    #: controller, for mode-specific diagnostics
    controller: MFController | None = None
    #: salvage-mode replay/loading only: what was recovered and what was lost
    recovery: RecoveryReport | None = None
    #: salvage-mode replay only: (rank, callsite) where the record ran out,
    #: if the replayed program wanted more events than the record holds.
    truncated_at: tuple[int, str] | None = None
    #: telemetry rollup, populated when the session ran with telemetry on.
    run_stats: RunStats | None = None
    #: the registry the run reported into (NULL_REGISTRY when disabled) —
    #: what ``repro trace`` exports after the run.
    registry: TelemetryRegistry | NullRegistry | None = None
    #: causal flow capture, when the session ran with ``flow=`` — feed to
    #: :func:`repro.obs.merged_timeline` for the cross-rank Chrome trace.
    flow: ColumnarFlowRecorder | None = None
    #: salvage-mode replay only: the post-mortem of a replay that stalled
    #: (:class:`~repro.errors.ReplayStallError`) and ended early.
    stall: StallReport | None = None
    #: ledger line appended for this run (sessions with ``ledger=`` only).
    ledger_entry: Any = None

    @property
    def truncated(self) -> bool:
        return self.truncated_at is not None

    @property
    def observed_orders(self) -> dict[int, list]:
        """Per-rank (callsite, events) delivery sequence — the replay target."""
        return {
            rank: [(o.callsite, o.matched) for o in stream if o.matched]
            for rank, stream in self.outcomes.items()
        }

    def total_receive_events(self) -> int:
        return sum(
            len(o.matched) for stream in self.outcomes.values() for o in stream
        )


class _Session:
    """Shared engine plumbing. Its observer keywords — ``telemetry``,
    ``flow``, ``metrics_stream``, ``ledger``, ``run_id`` — are every
    session's, declared here once."""

    def __init__(
        self,
        program: Callable | Sequence[Callable],
        nprocs: int,
        network_seed: int = 0,
        latency: LatencyModel | None = None,
        engine_kwargs: Mapping[str, Any] | None = None,
        telemetry: Any = None,
        flow: ColumnarFlowRecorder | None = None,
        metrics_stream: str | None = None,
        ledger: Any = None,
        run_id: str = "",
    ) -> None:
        self.program = program
        self.nprocs = nprocs
        self.network_seed = network_seed
        self.latency = latency if latency is not None else LatencyModel()
        self.engine_kwargs = dict(engine_kwargs or {})
        #: ``telemetry``: None = process default (``REPRO_TELEMETRY``),
        #: True = fresh private registry, False = force off, or pass a
        #: :class:`~repro.obs.TelemetryRegistry` to share one across runs.
        self.registry = resolve_registry(telemetry)
        #: optional causal flow capture (repro.obs.causal.ColumnarFlowRecorder).
        self.flow = flow
        #: when set, a MetricsStreamWriter appends live JSONL here for
        #: ``repro monitor``, written from the engine's block tick; implies
        #: telemetry (a private registry is created if the session would
        #: otherwise run with none).
        self.metrics_stream = metrics_stream
        if metrics_stream is not None and not self.registry.enabled:
            self.registry = TelemetryRegistry()
        #: ``ledger``: a path or a :class:`~repro.obs.ledger.RunLedger`;
        #: when set, every run appends one summary line to it.
        if isinstance(ledger, str):
            from repro.obs.ledger import RunLedger

            ledger = RunLedger(ledger)
        self.ledger = ledger
        self.run_id = run_id
        self._wall_seconds = 0.0
        self._archive_path: str | None = None

    def _run(self, controller: MFController, mode: str) -> RunResult:
        network = Network(seed=self.network_seed, latency=self.latency)
        engine_kwargs = dict(self.engine_kwargs)
        if self.flow is not None:
            engine_kwargs.setdefault("flow_recorder", self.flow)
        engine = Engine(
            self.nprocs,
            self.program,
            network=network,
            controller=controller,
            **engine_kwargs,
        )
        self._engine = engine  # kept for post-mortem diagnostics
        t0 = time.perf_counter()
        if self.metrics_stream is not None:
            engine.metrics_stream = MetricsStreamWriter(
                self.metrics_stream, self.registry
            ).start()
        try:
            with use_registry(self.registry):
                with span(f"session.{mode}", nprocs=self.nprocs) as sp:
                    stats = engine.run()
                    sp.set(events=stats.total_events)
        finally:
            if engine.metrics_stream is not None:
                engine.metrics_stream.close(engine.stats.total_events)
            self._wall_seconds = time.perf_counter() - t0
        result = RunResult(mode=mode, nprocs=self.nprocs, stats=stats)
        result.app_results = {p.rank: p.result for p in engine.procs}
        result.final_clocks = {p.rank: p.clock.value for p in engine.procs}
        result.controller = controller
        result.flow = self.flow
        return result

    def _attach_stats(self, result: RunResult) -> RunResult:
        """Stamp the run's telemetry rollup onto its result."""
        result.registry = self.registry
        if self.registry.enabled:
            chunks = stored_bytes = 0
            if result.archive is not None:
                chunks = sum(
                    len(result.archive.chunks(r))
                    for r in range(result.archive.nprocs)
                )
                stored_bytes = result.archive.total_bytes()
            result.run_stats = build_run_stats(
                self.registry,
                mode=result.mode,
                nprocs=result.nprocs,
                wall_seconds=self._wall_seconds,
                virtual_seconds=result.stats.virtual_time,
                receive_events=result.total_receive_events(),
                chunks=chunks,
                stored_bytes=stored_bytes,
            )
        if self.ledger is not None:
            from repro.obs.ledger import entry_from_result

            result.ledger_entry = self.ledger.append(
                entry_from_result(
                    result,
                    wall_seconds=self._wall_seconds,
                    archive_path=self._archive_path,
                    run_id=self.run_id,
                )
            )
        return result


class BaselineSession(_Session):
    """Run without any recording (the 'MCB w/o Recording' configuration)."""

    def run(self) -> RunResult:
        return self._attach_stats(self._run(MFController(), "baseline"))


class RecordSession(_Session):
    """Run under CDC recording; the result carries the archive."""

    def __init__(
        self,
        program: Callable | Sequence[Callable],
        nprocs: int,
        network_seed: int = 0,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        cost_model: RecordingCostModel | None = None,
        keep_outcomes: bool = True,
        gzip_baseline: bool = False,
        replay_assist: bool = True,
        latency: LatencyModel | None = None,
        engine_kwargs: Mapping[str, Any] | None = None,
        store_dir: str | None = None,
        store_opener: Any = open,
        store_fsync: bool = True,
        store_retry: RetryPolicy | None = None,
        meta: Mapping[str, Any] | None = None,
        **observers: Any,
    ) -> None:
        super().__init__(program, nprocs, network_seed, latency, engine_kwargs, **observers)
        self.chunk_events = chunk_events
        self.cost_model = cost_model
        self.keep_outcomes = keep_outcomes
        self.gzip_baseline = gzip_baseline
        self.replay_assist = replay_assist
        #: when set, chunks stream to this directory as durable v2 frames
        #: while the run is in flight; the manifest commits at the end.
        self.store_dir = store_dir
        self._archive_path = store_dir
        self.store_opener = store_opener
        self.store_fsync = store_fsync
        self.store_retry = store_retry
        self.meta = dict(meta or {})

    def run(self) -> RunResult:
        writer = None
        if self.store_dir is not None:
            writer = DurableArchiveWriter(
                self.store_dir,
                self.nprocs,
                opener=self.store_opener,
                fsync=self.store_fsync,
                retry=self.store_retry,
            )
        cls = GzipRecordingController if self.gzip_baseline else RecordingController
        controller = cls(
            self.nprocs,
            chunk_events=self.chunk_events,
            cost_model=self.cost_model,
            keep_outcomes=self.keep_outcomes,
            replay_assist=self.replay_assist,
            store=writer,
        )
        controller.archive.meta.update(self.meta)
        try:
            result = self._run(controller, controller.mode)
        except BaseException:
            # crash path: leave flushed frames on disk, commit no manifest
            if writer is not None:
                writer.abort()
            raise
        if writer is not None:
            with use_registry(self.registry):  # manifest commit + fsyncs
                writer.close(controller.archive.meta)
        result.archive = controller.archive
        if self.keep_outcomes or self.gzip_baseline:
            result.outcomes = {
                r: controller.outcomes_of(r) for r in range(self.nprocs)
            }
        return self._attach_stats(result)


class ReplaySession(_Session):
    """Run under replay control, forcing the recorded receive order.

    ``archive`` is whatever :func:`~repro.replay.durable_store.open_run`
    takes — a :class:`RecordArchive`, a record :class:`RunResult`, or an
    archive *directory* path, which is loaded in the requested ``mode``:

    * ``"strict"`` (default): any corruption — truncated tail, CRC
      mismatch, missing rank file — raises
      :class:`~repro.errors.ArchiveCorruptionError` before replay starts,
      and a replay that outruns the record fails fast with
      :class:`~repro.errors.RecordExhausted`.
    * ``"salvage"``: loading recovers the longest valid epoch-aligned
      chunk prefix per rank (the :class:`RecoveryReport` rides on the
      result), and replay of a truncated record ends cleanly where the
      record ends, with ``result.truncated_at`` naming the (rank,
      callsite) that ran out. Application results of unfinished ranks are
      whatever the partial run produced.

    A replay that stalls (:class:`~repro.errors.ReplayStallError`, the
    assist-less LMC path only) carries its :class:`StallReport` on
    ``.report``; in ``"salvage"`` mode it instead ends as a
    ``"replay-stalled"`` result with ``.stall`` set and ``truncated_at``
    naming the first-divergence candidate's (rank, callsite).
    """

    def __init__(
        self,
        program: Callable | Sequence[Callable],
        archive: RecordArchive | RunResult | StoredRun | str,
        network_seed: int = 0,
        delivery_mode: DeliveryMode = DeliveryMode.PROGRESSIVE,
        latency: LatencyModel | None = None,
        engine_kwargs: Mapping[str, Any] | None = None,
        mode: str = "strict",
        keep_outcomes: bool = True,
        telemetry: Any = None,
        **observers: Any,
    ) -> None:
        if mode not in ("strict", "salvage"):
            raise ValueError(f"mode must be 'strict' or 'salvage', got {mode!r}")
        self.mode = mode
        registry = resolve_registry(telemetry)
        with use_registry(registry):  # a directory load reports store.* metrics
            run = open_run(archive, salvage=mode == "salvage")
        super().__init__(
            program, run.archive.nprocs, network_seed, latency, engine_kwargs, registry, **observers
        )
        self._archive_path = run.path
        self.archive = run.archive
        self.recovery: RecoveryReport | None = run.recovery
        self.delivery_mode = delivery_mode
        #: skip materializing per-event outcome objects; analysis passes
        #: that only consume the flow recorder (``repro explain``) turn
        #: this off — at a million events the objects outweigh the replay.
        self.keep_outcomes = keep_outcomes

    def run(self) -> RunResult:
        controller = ReplayController(
            self.archive,
            delivery_mode=self.delivery_mode,
            keep_outcomes=self.keep_outcomes,
        )
        try:
            result = self._run(controller, "replay")
        except RecordExhausted as exc:
            if self.mode != "salvage":
                raise
            # the program wants events past the recovered prefix: report
            # where the record ends instead of failing the whole replay.
            result = self._collect("replay-salvage", controller)
            result.truncated_at = (exc.rank, exc.callsite)
            return self._finish(result, controller)
        except ReplayStallError as exc:
            with use_registry(self.registry):
                exc.report = report = build_stall_report(self._engine, controller)
            if self.mode != "salvage":
                raise
            result = self._collect("replay-stalled", controller)
            result.stall = report
            if report.divergence is not None:
                result.truncated_at = (
                    report.divergence.rank,
                    report.divergence.callsite,
                )
            return self._finish(result, controller)
        except SimulationError as exc:
            # attach a structured post-mortem so the user sees *why*
            with use_registry(self.registry):
                report = replay_report(self._engine, controller)
            raise ReplayDivergence(
                report.stuck_ranks[0] if report.stuck_ranks else -1,
                f"{exc}\n{report.render()}",
            ) from exc
        leftovers = {
            key: n for key, n in controller.undelivered_summary().items() if n
        }
        if leftovers and self.mode != "salvage":
            raise SimulationError(
                f"replay finished with undelivered recorded events: {leftovers}"
            )
        return self._finish(result, controller)

    def _collect(self, mode: str, controller: ReplayController) -> RunResult:
        """What the engine holds after a replay that was cut short: the tail
        of :meth:`_run`, not shared with it because one more call per record
        run trips ``tests/sim/test_hot_path_budget.py``."""
        engine = self._engine
        result = RunResult(mode=mode, nprocs=self.nprocs, stats=engine.stats)
        result.app_results = {p.rank: p.result for p in engine.procs}
        result.final_clocks = {p.rank: p.clock.value for p in engine.procs}
        result.controller = controller
        result.flow = self.flow
        return result

    def _finish(self, result: RunResult, controller: ReplayController) -> RunResult:
        """Stamp the replay's streams and the stored run it was driven by."""
        result.outcomes = dict(controller.outcomes)
        result.archive = self.archive
        result.recovery = self.recovery
        return self._attach_stats(result)


def assert_replay_matches(record: RunResult, replay: RunResult) -> None:
    """Raise AssertionError unless the replay reproduced the recorded run."""
    if record.nprocs != replay.nprocs:
        raise AssertionError("rank counts differ")
    for rank in range(record.nprocs):
        rec = [o for o in record.outcomes.get(rank, [])]
        rep = [o for o in replay.outcomes.get(rank, [])]
        if rec != rep:
            for i, (a, b) in enumerate(zip(rec, rep)):
                if a != b:
                    raise AssertionError(
                        f"rank {rank} outcome {i} differs:\n  record {a}\n  replay {b}"
                    )
            raise AssertionError(
                f"rank {rank}: outcome counts differ ({len(rec)} vs {len(rep)})"
            )
        if record.final_clocks[rank] != replay.final_clocks[rank]:
            raise AssertionError(f"rank {rank} final Lamport clocks differ")
        if record.app_results[rank] != replay.app_results[rank]:
            raise AssertionError(f"rank {rank} application results differ")
