"""Replay diagnostics: explain *why* a replay is stuck or diverged.

When a replay deadlocks or raises, the raw exception rarely tells the
whole story. :func:`replay_report` snapshots every rank's pending call and
callsite decoder state — cursor position, pool contents, outstanding
quotas, certainty horizon — into a structured report the session attaches
to its error, and that tooling can render for humans. A
:class:`~repro.errors.ReplayStallError` gets a :class:`StallReport` on top:
delivered events per callsite and the **first-divergence candidate** — the
earliest queued receive whose ``(clock, sender)`` identity the active record
chunk refuses, or the certainty-horizon event the record claims but that
never arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs import get_registry
from repro.replay.replayer import CallsiteReplayState, ReplayController
from repro.sim.engine import Engine


@dataclass(frozen=True)
class CallsiteReport:
    """Decoder snapshot for one (rank, callsite)."""

    rank: int
    callsite: str
    status: str  # unmatched | group | blocked | exhausted | idle
    cursor: int
    chunk_events: int | None
    pending_chunks: int
    pooled: int
    overflowed: int
    outstanding_quota: dict[int, int]
    horizon: tuple[int, int] | None
    uses_assist: bool

    def describe(self) -> str:
        where = (
            f"chunk event {self.cursor}/{self.chunk_events}"
            if self.chunk_events is not None
            else "no active chunk"
        )
        detail = (
            f"{self.pooled} pooled, {self.overflowed} overflowed, "
            f"waiting on senders {sorted(self.outstanding_quota)}"
            if self.outstanding_quota
            else f"{self.pooled} pooled"
        )
        return (
            f"rank {self.rank} @ {self.callsite}: {self.status} at {where} "
            f"({detail}; +{self.pending_chunks} chunks queued)"
        )


@dataclass(frozen=True)
class RankReport:
    """One rank's replay situation."""

    rank: int
    done: bool
    blocked_kind: str | None
    blocked_callsite: str | None
    lamport_clock: int
    callsites: tuple[CallsiteReport, ...] = ()

    def describe(self) -> str:
        if self.done:
            return f"rank {self.rank}: finished"
        if self.blocked_callsite is None:
            return f"rank {self.rank}: running (clock {self.lamport_clock})"
        return (
            f"rank {self.rank}: parked in {self.blocked_kind} at "
            f"{self.blocked_callsite!r} (clock {self.lamport_clock})"
        )


@dataclass(frozen=True)
class ReplayReport:
    """Whole-job replay snapshot."""

    ranks: tuple[RankReport, ...]
    #: registry snapshot taken with the report (empty when telemetry is off):
    #: queue/replay/store counters, gauge high-waters, staleness.
    telemetry: Mapping[str, Any] = field(default_factory=dict)

    @property
    def stuck_ranks(self) -> list[int]:
        return [r.rank for r in self.ranks if not r.done and r.blocked_callsite]

    def render(self, max_ranks: int = 16) -> str:
        lines = ["replay state report", "==================="]
        for rank_report in self.ranks[:max_ranks]:
            lines.append(rank_report.describe())
            for cs in rank_report.callsites:
                if cs.status in ("blocked", "group"):
                    lines.append(f"  {cs.describe()}")
        if len(self.ranks) > max_ranks:
            lines.append(f"... and {len(self.ranks) - max_ranks} more ranks")
        if self.telemetry:
            lines.append("telemetry:")
            for key, value in sorted(self.telemetry.items()):
                if isinstance(value, dict):
                    for name, v in sorted(value.items()):
                        lines.append(f"  {key}.{name} = {v}")
                else:
                    lines.append(f"  {key} = {value}")
        return "\n".join(lines)


#: counter/gauge name prefixes worth carrying into a stuck-replay report.
_TELEMETRY_PREFIXES = ("queue.", "replay.", "store.", "record.")


def telemetry_snapshot() -> dict[str, Any]:
    """Condense the active registry into report-sized key/values.

    Empty when telemetry is disabled. Includes the pipeline counters that
    explain a stuck replay (queue depths, pooled/delivered events, store
    flush activity) and how stale the trace is — the wall seconds since the
    last span completed, which distinguishes "still grinding" from "hung".
    """
    registry = get_registry()
    if not registry.enabled:
        return {}
    counters = {
        name: value
        for name, value in registry.counters().items()
        if name.startswith(_TELEMETRY_PREFIXES)
    }
    gauges = {
        name: value
        for name, value in registry.gauges().items()
        if name.startswith(_TELEMETRY_PREFIXES)
    }
    return {
        "counters": counters,
        "gauges": gauges,
        "span_events": len(registry.events),
        "dropped_events": registry.dropped_events,
        "seconds_since_last_event": round(
            registry.seconds_since_last_event(), 3
        ),
    }


def _callsite_report(state: CallsiteReplayState, status: str) -> CallsiteReport:
    return CallsiteReport(
        rank=state.rank,
        callsite=state.callsite,
        status=status,
        cursor=state.cursor,
        chunk_events=state.chunk.num_events if state.chunk else None,
        pending_chunks=len(state.pending_chunks),
        pooled=state.pooled_count,
        overflowed=len(state.overflow),
        outstanding_quota={s: q for s, q in state.quota.items() if q > 0},
        horizon=state.certainty_horizon() if state.chunk else None,
        uses_assist=state.senders is not None,
    )


def replay_report(engine: Engine, controller: ReplayController) -> ReplayReport:
    """Snapshot the replay state of every rank."""
    ranks = []
    for proc in engine.procs:
        call = proc.pending_call
        callsites = []
        for state in controller._states[proc.rank].values():
            if state.chunk is None and not state.pending_chunks:
                status = "idle"
            else:
                status = state.status()
            callsites.append(_callsite_report(state, status))
        ranks.append(
            RankReport(
                rank=proc.rank,
                done=proc.done,
                blocked_kind=call.kind.value if call else None,
                blocked_callsite=call.callsite if call else None,
                lamport_clock=proc.clock.value,
                callsites=tuple(sorted(callsites, key=lambda c: c.callsite)),
            )
        )
    return ReplayReport(tuple(ranks), telemetry=telemetry_snapshot())


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


def first_divergence_candidate(
    controller: ReplayController,
) -> DivergenceCandidate | None:
    """Earliest record/reality mismatch across a replay controller's states.

    Prefers refused arrivals (overflow entries of callsites that are
    still blocked mid-chunk) over missing events, and orders both by the
    global ``(clock, sender)`` identity, so the returned candidate is the
    causally earliest place the record and the replayed reality disagree.
    """
    blocked = [
        s
        for s in controller.callsite_states()
        if s.chunk is not None and any(q > 0 for q in s.quota.values())
    ]
    arrivals = [
        ((msg.clock, msg.src), state) for state in blocked for msg in state.overflow
    ]
    if arrivals:
        (clock, sender), state = min(arrivals, key=lambda kv: kv[0])
        return DivergenceCandidate(
            "unexpected-arrival", state.rank, state.callsite, sender, clock
        )
    horizons = [
        (h, s) for s in blocked if (h := s.certainty_horizon()) is not None
    ]
    if horizons:
        (clock, sender), state = min(horizons, key=lambda kv: kv[0])
        return DivergenceCandidate(
            "missing-event", state.rank, state.callsite, sender, clock
        )
    return None


@dataclass(frozen=True)
class StallReport:
    """Everything known about a replay when it stalled."""

    #: per-rank last epoch: events delivered per (rank, callsite) so far.
    last_epoch: dict[tuple[int, str], int]
    replay: ReplayReport
    divergence: DivergenceCandidate | None = None

    @property
    def delivered(self) -> int:
        """Events delivered before the stall."""
        return sum(self.last_epoch.values())

    def render(self) -> str:
        title = (
            f"replay stall report: no event can release a parked rank "
            f"({self.delivered} delivered)"
        )
        lines = [title, "=" * len(title)]
        if self.divergence is not None:
            lines.append(f"first-divergence candidate: {self.divergence.describe()}")
        if self.last_epoch:
            lines.append("delivered events per (rank, callsite):")
            for (rank, callsite), n in sorted(self.last_epoch.items()):
                lines.append(f"  rank {rank} @ {callsite}: {n}")
        lines.append(self.replay.render())
        return "\n".join(lines)


def build_stall_report(engine: Engine, controller: ReplayController) -> StallReport:
    """Assemble the stall report after the engine loop unwound."""
    return StallReport(
        last_epoch={
            (state.rank, state.callsite): state.delivered_events
            for state in controller.callsite_states()
        },
        replay=replay_report(engine, controller),
        divergence=first_divergence_candidate(controller),
    )
