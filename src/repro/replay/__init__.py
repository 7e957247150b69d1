"""Record-and-replay engine built on the CDC core and the MPI simulator."""

from repro.replay.async_queue import FluidQueueModel
from repro.replay.durable_store import (
    DurableArchiveWriter,
    RankRecovery,
    RecordArchive,
    RecoveryReport,
    RetryPolicy,
    bytes_per_event,
    load_archive,
    save_archive,
    summarize,
)
from repro.replay.cost_model import (
    PerRankRecordingState,
    RecordingCostModel,
    cdc_cost_model,
    gzip_cost_model,
)
from repro.replay.diagnostics import (
    CallsiteReport,
    DivergenceCandidate,
    RankReport,
    ReplayReport,
    StallReport,
    replay_report,
)
from repro.replay.recorder import (
    DEFAULT_CHUNK_EVENTS,
    GzipRecordingController,
    RecordingController,
)
from repro.replay.replayer import CallsiteReplayState, DeliveryMode, ReplayController
from repro.replay.session import (
    BaselineSession,
    RecordSession,
    ReplaySession,
    RunResult,
    assert_replay_matches,
)

__all__ = [
    "BaselineSession",
    "CallsiteReplayState",
    "CallsiteReport",
    "DivergenceCandidate",
    "RankReport",
    "ReplayReport",
    "StallReport",
    "replay_report",
    "DEFAULT_CHUNK_EVENTS",
    "DeliveryMode",
    "DurableArchiveWriter",
    "FluidQueueModel",
    "RankRecovery",
    "RecoveryReport",
    "RetryPolicy",
    "load_archive",
    "save_archive",
    "GzipRecordingController",
    "PerRankRecordingState",
    "RecordArchive",
    "RecordSession",
    "RecordingController",
    "RecordingCostModel",
    "ReplayController",
    "ReplaySession",
    "RunResult",
    "assert_replay_matches",
    "bytes_per_event",
    "cdc_cost_model",
    "gzip_cost_model",
    "summarize",
]
