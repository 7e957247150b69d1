"""Exception hierarchy for the CDC record-and-replay library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event MPI simulator reached an invalid state."""


class DeadlockError(SimulationError):
    """No process is runnable and no event is pending, but processes remain.

    Carries the set of blocked ranks to aid debugging of workloads.
    """

    def __init__(self, blocked_ranks, message: str | None = None) -> None:
        self.blocked_ranks = tuple(sorted(blocked_ranks))
        super().__init__(
            message
            or f"deadlock: ranks {self.blocked_ranks} blocked with no pending events"
        )


class CommunicatorError(SimulationError):
    """Misuse of the simulated communicator API (bad rank, reused request...)."""


class EncodingError(ReproError):
    """A CDC encoding stage received data it cannot represent."""


class DecodingError(ReproError):
    """A CDC record is malformed, truncated, or fails an integrity check."""


class RecordFormatError(DecodingError):
    """A serialized chunk violates the CDC binary format."""


class UnknownCallsiteError(RecordFormatError):
    """A frame names its callsite by an id the archive's names table lacks."""


class ArchiveCorruptionError(RecordFormatError):
    """A stored record archive failed an integrity check.

    Raised by the strict loading path of
    :mod:`repro.replay.durable_store` when a rank file has a truncated
    tail (crash mid-flush), a frame whose CRC does not match its payload,
    or a frame that decodes to garbage. Carries enough context to point a
    user at the exact failure: the rank, the frame index within that
    rank's file, and the epoch context of the last chunk that decoded
    cleanly (the salvageable prefix boundary).
    """

    def __init__(
        self,
        rank: int,
        frame_index: int,
        kind: str,
        path: str = "",
        epoch_context: str = "",
    ) -> None:
        self.rank = rank
        self.frame_index = frame_index
        self.kind = kind
        self.path = path
        self.epoch_context = epoch_context
        msg = f"archive corrupt at rank {rank}, frame {frame_index}: {kind}"
        if path:
            msg += f" ({path})"
        if epoch_context:
            msg += f"; last good chunk: {epoch_context}"
        super().__init__(msg)


class ReplayStallError(ReproError):
    """A replay reached a state from which no event can release a parked rank.

    Raised by the replay controller's retry tick on the assist-less LMC
    path (DESIGN.md §5.4): every live rank is parked, nothing but tool
    callbacks is scheduled, and either no parked group could become certain
    at any channel floor or a full round of retries changed nothing.
    Without it the beacon retries would spin until ``max_events``. Carries
    ``delivered``, the events delivered before the stall; the replay
    session attaches a :class:`~repro.replay.diagnostics.StallReport` as
    ``.report`` before the error reaches the caller.
    """

    def __init__(self, delivered: int, detail: str = "") -> None:
        self.delivered = delivered
        self.report = None  # StallReport, attached by the session
        msg = f"replay stalled after {delivered} delivered events"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ReplayDivergence(ReproError):
    """The replayed execution diverged from the recorded one.

    Raised when the application requests a matching-function completion that
    the record cannot satisfy (e.g. a decoded message id that cannot belong
    to any pending request), which indicates either a non-deterministic send
    path (violating Definition 7 of the paper) or a corrupted record.
    """

    def __init__(self, rank: int, detail: str) -> None:
        self.rank = rank
        self.detail = detail
        super().__init__(f"replay diverged at rank {rank}: {detail}")


class RecordExhausted(ReplayDivergence):
    """Replay requested more events than the record contains."""

    def __init__(self, rank: int, callsite: str) -> None:
        self.callsite = callsite
        super().__init__(rank, f"record exhausted for callsite {callsite!r}")
