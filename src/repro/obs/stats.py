"""Human-facing run telemetry summary: :class:`RunStats`.

The per-run rollup a session attaches to its :class:`RunResult` when
telemetry is enabled — what ``repro replay --verbose`` and ``repro trace``
print. It is a *snapshot*: plain data, safe to keep after the registry
moves on, and renderable without any live session state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.registry import NullRegistry, TelemetryRegistry

__all__ = ["RunStats", "build_run_stats"]


@dataclass(frozen=True)
class RunStats:
    """Telemetry rollup for one session run."""

    mode: str
    nprocs: int
    wall_seconds: float
    virtual_seconds: float
    #: matched receive events the run produced (record) or delivered (replay).
    receive_events: int
    #: CDC chunks in the run's archive (0 when no archive is attached).
    chunks: int = 0
    #: compressed archive bytes (0 when no archive is attached).
    stored_bytes: int = 0
    counters: Mapping[str, int] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    span_events: int = 0
    dropped_events: int = 0
    #: counters/histograms whose values clipped (counter ceiling hit, or
    #: observations in the open-ended last histogram bucket) — the
    #: telemetry itself is truncated, not just large.
    saturated_instruments: tuple[str, ...] = ()

    @property
    def truncated_telemetry(self) -> bool:
        """True when the rollup silently undersells the run (drops/clips)."""
        return bool(self.dropped_events or self.saturated_instruments)

    @property
    def bytes_per_event(self) -> float:
        return self.stored_bytes / self.receive_events if self.receive_events else 0.0

    @property
    def events_per_second(self) -> float:
        return self.receive_events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def counter(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def render(self, top_counters: int = 12) -> str:
        """Multi-line human summary (aligned key: value rows)."""
        from repro.analysis.report import human_bytes

        rows: list[tuple[str, str]] = [
            ("mode", self.mode),
            ("ranks", str(self.nprocs)),
            ("wall time", f"{self.wall_seconds:.3f} s"),
            ("virtual time", f"{self.virtual_seconds:.6f} s"),
            ("receive events", f"{self.receive_events:,}"),
            ("events/s (wall)", f"{self.events_per_second:,.0f}"),
        ]
        if self.chunks:
            rows.append(("CDC chunks", f"{self.chunks:,}"))
        if self.stored_bytes:
            rows.append(("archive bytes", human_bytes(self.stored_bytes)))
            rows.append(("bytes/event", f"{self.bytes_per_event:.3f}"))
        rows.append(("span events", f"{self.span_events:,}"))
        if self.dropped_events:
            rows.append(
                (
                    "dropped events",
                    f"{self.dropped_events:,} ⚠ span buffer overflowed; "
                    "trace is truncated",
                )
            )
        if self.saturated_instruments:
            rows.append(
                (
                    "saturated",
                    "⚠ " + ", ".join(self.saturated_instruments)
                    + " (values clipped)",
                )
            )
        shown = 0
        for name in sorted(self.counters):
            if shown >= top_counters:
                rows.append(("…", f"{len(self.counters) - shown} more counter(s)"))
                break
            rows.append((name, f"{self.counters[name]:,}"))
            shown += 1
        for name in sorted(self.gauges):
            rows.append((f"{name} (max)", f"{self.gauges[name]:g}"))
        for name, h in sorted(self.histograms.items()):
            rows.append(
                (
                    name,
                    f"n={h.get('count', 0):,} mean={h.get('mean', 0.0):.1f} "
                    f"p99<={h.get('p99', 0):,}",
                )
            )
        width = max((len(k) for k, _ in rows), default=0)
        title = f"run stats [{self.mode}]"
        lines = [title, "-" * len(title)]
        lines += [f"{k.ljust(width)}  {v}" for k, v in rows]
        return "\n".join(lines)


def build_run_stats(
    registry: TelemetryRegistry | NullRegistry,
    mode: str,
    nprocs: int,
    wall_seconds: float,
    virtual_seconds: float,
    receive_events: int,
    chunks: int = 0,
    stored_bytes: int = 0,
) -> RunStats:
    """Snapshot ``registry`` into a :class:`RunStats`."""
    return RunStats(
        mode=mode,
        nprocs=nprocs,
        wall_seconds=wall_seconds,
        virtual_seconds=virtual_seconds,
        receive_events=receive_events,
        chunks=chunks,
        stored_bytes=stored_bytes,
        counters=registry.counters(),
        gauges=registry.gauges(),
        histograms=registry.histograms(),
        span_events=len(registry.events),
        dropped_events=registry.dropped_events,
        saturated_instruments=tuple(registry.saturated_instruments()),
    )
