"""Monotonic-progress watchdog: catch a wedged replay while it happens.

A replay against a divergent or truncated record does not necessarily
deadlock cleanly: without replay assist, a blocked callsite keeps
re-probing through clock-beacon retry ticks, so the event heap never
drains and the run spins — virtually forever — instead of raising. The
:class:`ProgressWatchdog` runs on its own thread, polls a progress
counter (delivered replay events, or total engine events for record /
baseline runs), and when nothing moved for ``deadline`` wall seconds it
asks the engine to abort (:meth:`~repro.sim.engine.Engine.request_abort`)
with a :class:`~repro.errors.ReplayStallError`. The engine raises at its
next event — a safe point — and the *session*, back on the main thread,
assembles the :class:`StallReport`: per-rank state, blocked callsites
with their pool contents, wait-time telemetry, and the
**first-divergence candidate** — the earliest queued receive whose
``(clock, sender)`` identity the active record chunk refuses, or the
certainty-horizon event the record claims but that never arrived.

The watchdog thread touches only GIL-atomic reads (an int-returning
callable) and a single reference store, so it needs no locking against
the engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ReplayStallError

__all__ = [
    "DivergenceCandidate",
    "ProgressWatchdog",
    "StallReport",
    "WatchdogConfig",
    "build_stall_report",
    "first_divergence_candidate",
]


@dataclass(frozen=True)
class WatchdogConfig:
    """How a session's watchdog behaves.

    ``policy`` applies when the stall fires during a replay:

    * ``"raise"`` (default) — re-raise :class:`ReplayStallError` with the
      stall report attached;
    * ``"salvage"`` — degrade like a salvage replay of a truncated
      record: return a truncated :class:`~repro.replay.session.RunResult`
      carrying the stall report, instead of raising.

    Record and baseline sessions always raise — there is no partial
    archive worth returning from a wedged recording.
    """

    #: wall seconds without progress before the stall fires.
    deadline: float = 30.0
    #: poll period; default = deadline / 8, clamped to [1 ms, 1 s].
    poll_interval: float | None = None
    policy: str = "raise"

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.policy not in ("raise", "salvage"):
            raise ValueError(
                f"policy must be 'raise' or 'salvage', got {self.policy!r}"
            )

    @property
    def interval(self) -> float:
        if self.poll_interval is not None:
            return self.poll_interval
        return min(1.0, max(0.001, self.deadline / 8.0))


def resolve_watchdog(
    watchdog: "WatchdogConfig | float | int | None",
) -> "WatchdogConfig | None":
    """Map a session's ``watchdog=`` argument: None, a deadline, or a config."""
    if watchdog is None:
        return None
    if isinstance(watchdog, WatchdogConfig):
        return watchdog
    if isinstance(watchdog, (int, float)) and not isinstance(watchdog, bool):
        return WatchdogConfig(deadline=float(watchdog))
    raise TypeError(
        f"watchdog must be None, a deadline in seconds, or a WatchdogConfig, "
        f"got {watchdog!r}"
    )


class ProgressWatchdog:
    """Background thread that aborts the engine when progress stops."""

    def __init__(
        self,
        engine,
        progress: Callable[[], int],
        config: WatchdogConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.progress = progress
        self.config = config
        self.clock = clock
        self.fired = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ProgressWatchdog":
        self._thread = threading.Thread(
            target=self._loop, name="repro-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ProgressWatchdog":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    def _loop(self) -> None:
        last = self.progress()
        last_change = self.clock()
        while not self._stop.wait(self.config.interval):
            current = self.progress()
            now = self.clock()
            if current != last:
                last, last_change = current, now
                continue
            if now - last_change >= self.config.deadline:
                self.fired = True
                self.engine.request_abort(
                    ReplayStallError(self.config.deadline, current)
                )
                return


# ---------------------------------------------------------------------------
# stall reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceCandidate:
    """The most suspicious record/reality mismatch at stall time.

    Two kinds:

    * ``"unexpected-arrival"`` — a message *arrived* and queued (pool
      overflow) but the active chunk's membership (sender quota, epoch
      line, boundary claims) refuses it: the record most plausibly
      diverged at this event.
    * ``"missing-event"`` — nothing queued explains the stall; the
      blocked callsite's certainty horizon names the earliest ``(clock,
      sender)`` the record still claims but that never arrived.
    """

    kind: str
    rank: int
    callsite: str
    sender: int
    clock: int

    def describe(self) -> str:
        if self.kind == "unexpected-arrival":
            return (
                f"rank {self.rank} @ {self.callsite!r}: message (clock "
                f"{self.clock}, sender {self.sender}) arrived but is absent "
                "from the active record chunk — earliest refused arrival"
            )
        return (
            f"rank {self.rank} @ {self.callsite!r}: record claims a receive "
            f"from sender {self.sender} with clock >= {self.clock} that "
            "never arrived"
        )


def first_divergence_candidate(controller) -> DivergenceCandidate | None:
    """Earliest record/reality mismatch across a replay controller's states.

    Prefers refused arrivals (overflow entries of callsites that are
    still blocked mid-chunk) over missing events, and orders both by the
    global ``(clock, sender)`` identity, so the returned candidate is the
    causally earliest place the record and the replayed reality disagree.
    """
    callsite_states = getattr(controller, "callsite_states", None)
    if callsite_states is None:
        return None
    blocked = [
        s
        for s in callsite_states()
        if s.chunk is not None and any(q > 0 for q in s.quota.values())
    ]
    arrivals: list[tuple[tuple[int, int], Any]] = []
    for state in blocked:
        for msg in state.overflow:
            arrivals.append(((msg.clock, msg.src), state))
    if arrivals:
        (clock, sender), state = min(arrivals, key=lambda kv: kv[0])
        return DivergenceCandidate(
            kind="unexpected-arrival",
            rank=state.rank,
            callsite=state.callsite,
            sender=sender,
            clock=clock,
        )
    horizons = [
        (h, s) for s in blocked if (h := s.certainty_horizon()) is not None
    ]
    if horizons:
        (clock, sender), state = min(horizons, key=lambda kv: kv[0])
        return DivergenceCandidate(
            kind="missing-event",
            rank=state.rank,
            callsite=state.callsite,
            sender=sender,
            clock=clock,
        )
    return None


@dataclass(frozen=True)
class StallReport:
    """Everything known about a run at the moment the watchdog fired."""

    mode: str
    deadline: float
    #: progress counter value at which the run wedged.
    progress: int
    #: per-rank last epoch: events delivered per (rank, callsite) so far.
    last_epoch: dict[tuple[int, str], int]
    #: structured per-rank replay snapshot (None for record/baseline runs).
    replay: Any = None
    divergence: DivergenceCandidate | None = None

    def render(self) -> str:
        title = (
            f"replay stall report: no progress for {self.deadline:g}s "
            f"[{self.mode}]"
        )
        lines = [title, "=" * len(title)]
        if self.divergence is not None:
            lines.append(f"first-divergence candidate: {self.divergence.describe()}")
        if self.last_epoch:
            lines.append("delivered events per (rank, callsite):")
            for (rank, callsite), n in sorted(self.last_epoch.items()):
                lines.append(f"  rank {rank} @ {callsite}: {n}")
        if self.replay is not None:
            lines.append(self.replay.render())
        return "\n".join(lines)


def build_stall_report(
    engine,
    controller,
    exc: ReplayStallError,
    mode: str,
) -> StallReport:
    """Assemble the stall report single-threadedly, after the loop unwound."""
    replay = None
    divergence = None
    last_epoch: dict[tuple[int, str], int] = {}
    callsite_states = getattr(controller, "callsite_states", None)
    if callsite_states is not None:  # replay controller
        from repro.replay.diagnostics import replay_report

        replay = replay_report(engine, controller)
        divergence = first_divergence_candidate(controller)
        last_epoch = {
            (state.rank, state.callsite): state.delivered_events
            for state in callsite_states()
        }
    return StallReport(
        mode=mode,
        deadline=exc.deadline,
        progress=exc.progress,
        last_epoch=last_epoch,
        replay=replay,
        divergence=divergence,
    )


def replay_progress(controller) -> Callable[[], int]:
    """Progress callable for a replay run: total delivered events."""
    states = list(controller.callsite_states())

    def progress() -> int:
        return sum(state.delivered_events for state in states)

    return progress


def engine_progress(engine) -> Callable[[], int]:
    """Progress callable for record/baseline runs: engine event count."""
    stats = engine.stats
    return lambda: stats.total_events
