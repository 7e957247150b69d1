"""Fleet state: per-run merged registries, derived signals, alert rules.

This module is the server's brain, kept free of any networking so tests
drive it with plain frame dicts. :class:`FleetState` owns one
:class:`RunState` per ``run_id``; each run folds delta frames into its
own :class:`~repro.obs.registry.TelemetryRegistry` (a commutative merge)
and feeds the ``sample``/``chunk`` objects into a :class:`~repro.obs.monitor.
MonitorState` — so the server reuses the exact anomaly detection
(Welford z-score over chunk compression ratios) and epoch ladder the
local ``repro monitor`` renders, rather than reimplementing either.

Derived signals follow the watchdog's shape: a run with no counter
progress for :attr:`FleetState.stall_after` seconds reads as *stalled*
(heartbeats keep arriving — the engine, not the network, is stuck),
one with no frames at all for the same window reads as *lost*.

Alert rules are declarative dicts evaluated against each run's summary::

    {"name": "...", "signal": "<summary key>", "op": ">", "value": N}

``op`` is one of ``>``, ``>=``, ``<``, ``<=``, ``==``, ``!=``,
``truthy``. The default rule set covers the paper-scale failure modes:
stalled/lost runs, compression anomalies, dropped shipper frames, and
saturated instruments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.monitor import MonitorState, sparkline
from repro.obs.registry import TelemetryRegistry

__all__ = [
    "DEFAULT_ALERT_RULES",
    "DEFAULT_STALL_AFTER",
    "FleetState",
    "RunState",
    "evaluate_rules",
    "render_fleet",
    "validate_alert_rules",
]

#: seconds without counter progress before a live run reads as stalled.
DEFAULT_STALL_AFTER = 10.0

#: monitor objects kept per run for remote drill-down (bounded memory).
MAX_REPLAY_OBJECTS = 4096

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: the built-in rule set ``repro serve-telemetry`` evaluates.
DEFAULT_ALERT_RULES: tuple[dict[str, Any], ...] = (
    {
        "name": "run-stalled",
        "signal": "stalled",
        "op": "truthy",
        "severity": "critical",
        "help": "heartbeats arrive but no counter has moved",
    },
    {
        "name": "run-lost",
        "signal": "lost",
        "op": "truthy",
        "severity": "critical",
        "help": "no frames from the run inside the stall window",
    },
    {
        "name": "compression-anomalies",
        "signal": "anomalies",
        "op": ">",
        "value": 0,
        "severity": "warning",
        "help": "chunk compression ratio left the |z|<=3 band",
    },
    {
        "name": "shipper-drops",
        "signal": "frames_dropped",
        "op": ">",
        "value": 0,
        "severity": "warning",
        "help": "client buffer overflowed; merged totals undercount",
    },
    {
        "name": "saturated-instruments",
        "signal": "saturated",
        "op": ">",
        "value": 0,
        "severity": "warning",
        "help": "a counter or histogram clipped at its ceiling",
    },
    {
        "name": "critical-path-concentration",
        "signal": "critical_path_share",
        "op": ">",
        "value": 0.75,
        "severity": "warning",
        "help": "one rank holds most of the run's critical path "
        "(repro explain publishes explain.critical_path_share)",
    },
)


def validate_alert_rules(rules: Iterable[Mapping[str, Any]]) -> list[str]:
    """Shape-check a rule set; returns problem strings."""
    problems: list[str] = []
    names: set[str] = set()
    for i, rule in enumerate(rules):
        if not isinstance(rule, Mapping):
            problems.append(f"rule {i}: not an object")
            continue
        name = rule.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"rule {i}: name missing")
        elif name in names:
            problems.append(f"rule {i}: duplicate name {name!r}")
        else:
            names.add(name)
        if not isinstance(rule.get("signal"), str) or not rule.get("signal"):
            problems.append(f"rule {i}: signal missing")
        op = rule.get("op")
        if op != "truthy" and op not in _OPS:
            problems.append(f"rule {i}: unknown op {op!r}")
        elif op != "truthy" and not isinstance(
            rule.get("value"), (int, float)
        ):
            problems.append(f"rule {i}: op {op!r} needs a numeric value")
        sev = rule.get("severity", "warning")
        if sev not in ("warning", "critical"):
            problems.append(f"rule {i}: severity must be warning|critical")
    return problems


def evaluate_rules(
    rules: Iterable[Mapping[str, Any]], summary: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Fire every rule whose signal/op/value matches the run summary."""
    alerts: list[dict[str, Any]] = []
    for rule in rules:
        signal = str(rule.get("signal", ""))
        observed = summary.get(signal)
        op = rule.get("op", "truthy")
        if op == "truthy":
            fired = bool(observed)
        else:
            try:
                fired = _OPS[op](float(observed or 0), float(rule["value"]))
            except (TypeError, ValueError, KeyError):
                fired = False
        if fired:
            alerts.append(
                {
                    "rule": rule.get("name", "?"),
                    "severity": rule.get("severity", "warning"),
                    "run_id": summary.get("run_id", "?"),
                    "signal": signal,
                    "observed": observed,
                    "help": rule.get("help", ""),
                }
            )
    return alerts


#: counters whose movement counts as progress for stall detection.
_PROGRESS_COUNTERS = (
    "sim.events",
    "record.flushes",
    "replay.delivered_events",
)


class RunState:
    """One shipped run, as the aggregator sees it."""

    def __init__(self, run_id: str, now: float) -> None:
        self.run_id = run_id
        self.meta: dict[str, Any] = {}
        self.mode = "?"
        self.nprocs = 0
        self.pid = 0
        self.incarnation = 0
        self.connected = False
        self.first_seen = now
        self.last_frame_at = now
        #: server clock at the last observed counter progress.
        self.last_progress_at = now
        self._progress_marks: dict[str, int] = {}
        self.last_seq = 0
        self.frames_merged = 0
        self.frames_deduped = 0
        self.ended = False
        self.end_info: dict[str, Any] = {}
        #: the run's merged instruments (delta frames fold in here).
        self.registry = TelemetryRegistry(name=run_id)
        #: reuses the local monitor's parsing: epochs, Welford anomalies.
        self.monitor = MonitorState()
        #: bounded replay of stream objects for `monitor --remote` drill-down.
        self.replay_objects: list[dict[str, Any]] = []

    # -- frame application ---------------------------------------------------

    def hello(self, frame: Mapping[str, Any], now: float) -> None:
        self.meta = dict(frame.get("meta") or {})
        self.mode = str(frame.get("mode", "?"))
        self.nprocs = int(frame.get("nprocs") or 0)
        self.pid = int(frame.get("pid") or 0)
        self.incarnation = max(
            self.incarnation, int(frame.get("incarnation") or 1)
        )
        self.connected = True
        self.last_frame_at = now
        if not self.monitor.meta:
            self._replay(
                {
                    "type": "meta",
                    "stream": True,
                    "registry": self.run_id,
                    "enabled": True,
                    "interval": 0.0,
                }
            )

    def apply(self, frame: Mapping[str, Any], now: float) -> bool:
        """Fold one sequenced frame in; False when seq-deduped."""
        seq = int(frame.get("seq") or 0)
        if seq <= self.last_seq:
            self.frames_deduped += 1
            return False
        self.last_seq = seq
        self.frames_merged += 1
        self.last_frame_at = now
        kind = frame.get("type")
        if kind == "delta":
            delta = frame.get("delta") or {}
            if delta:
                self.registry.merge(delta)
            sample = frame.get("sample")
            if isinstance(sample, Mapping) and sample:
                self._replay(dict(sample))
            for chunk in frame.get("chunks") or ():
                if isinstance(chunk, Mapping):
                    self._replay(dict(chunk))
            self._mark_progress(now)
        elif kind == "end":
            self.ended = True
            self.connected = False
            self.end_info = {
                k: frame.get(k)
                for k in ("t", "frames_sent", "frames_dropped", "reconnects")
            }
            self._replay(
                {
                    "type": "end",
                    "t": frame.get("t", 0.0),
                    "trace_events": 0,
                    "dropped_events": 0,
                }
            )
        return True

    def _replay(self, obj: dict[str, Any]) -> None:
        self.monitor.update(obj)
        if len(self.replay_objects) < MAX_REPLAY_OBJECTS:
            self.replay_objects.append(obj)

    def _mark_progress(self, now: float) -> None:
        counters = self.registry.counters()
        moved = False
        for name in _PROGRESS_COUNTERS:
            value = counters.get(name, 0)
            if value > self._progress_marks.get(name, 0):
                self._progress_marks[name] = value
                moved = True
        if moved:
            self.last_progress_at = now

    # -- derived signals -----------------------------------------------------

    def stalled(self, now: float, stall_after: float) -> bool:
        """Frames keep arriving but no progress counter has moved."""
        return (
            not self.ended
            and now - self.last_progress_at > stall_after
            and now - self.last_frame_at <= stall_after
        )

    def lost(self, now: float, stall_after: float) -> bool:
        """No frames at all inside the stall window (and no clean end)."""
        return not self.ended and now - self.last_frame_at > stall_after

    def summary(self, now: float, stall_after: float) -> dict[str, Any]:
        counters = self.registry.counters()
        events = max(
            counters.get("sim.events", 0),
            counters.get("replay.delivered_events", 0),
        )
        return {
            "run_id": self.run_id,
            "mode": self.mode,
            "nprocs": self.nprocs,
            "pid": self.pid,
            "workload": str(self.meta.get("workload", "?")),
            "connected": self.connected,
            "ended": self.ended,
            "incarnation": self.incarnation,
            "age_seconds": round(now - self.first_seen, 3),
            "since_last_frame": round(now - self.last_frame_at, 3),
            "last_seq": self.last_seq,
            "frames_merged": self.frames_merged,
            "frames_deduped": self.frames_deduped,
            "events": events,
            "chunks": len(self.monitor.chunks),
            "anomalies": len(self.monitor.anomalies),
            "stalled": self.stalled(now, stall_after),
            "lost": self.lost(now, stall_after),
            "frames_dropped": int(self.end_info.get("frames_dropped") or 0),
            "reconnects": int(self.end_info.get("reconnects") or 0),
            "saturated": len(self.registry.saturated_instruments()),
            # published by repro explain (analysis.critical_path) when the
            # run's telemetry registry is enabled; 0.0 = not analyzed.
            "critical_path_share": float(
                self.registry.gauges().get("explain.critical_path_share", 0.0)
            ),
            "healthy": not (
                self.stalled(now, stall_after) or self.lost(now, stall_after)
            ),
        }


class FleetState:
    """Every run the aggregator has seen, plus fleet-wide rollups."""

    def __init__(
        self,
        stall_after: float = DEFAULT_STALL_AFTER,
        rules: Iterable[Mapping[str, Any]] | None = None,
        clock=time.monotonic,
    ) -> None:
        if stall_after <= 0:
            raise ValueError(f"stall_after must be > 0, got {stall_after}")
        self.stall_after = stall_after
        self.rules = [dict(r) for r in (rules or DEFAULT_ALERT_RULES)]
        problems = validate_alert_rules(self.rules)
        if problems:
            raise ValueError(f"bad alert rules: {'; '.join(problems)}")
        self.clock = clock
        self.runs: dict[str, RunState] = {}
        self.started_at = clock()
        self.frames_received = 0

    # -- ingest --------------------------------------------------------------

    def run_for(self, run_id: str) -> RunState:
        run = self.runs.get(run_id)
        if run is None:
            run = self.runs[run_id] = RunState(run_id, self.clock())
        return run

    def apply_hello(self, frame: Mapping[str, Any]) -> RunState:
        self.frames_received += 1
        run = self.run_for(str(frame.get("run_id")))
        run.hello(frame, self.clock())
        return run

    def apply_frame(self, run_id: str, frame: Mapping[str, Any]) -> bool:
        """Fold one sequenced client frame in; False when deduped."""
        self.frames_received += 1
        return self.run_for(run_id).apply(frame, self.clock())

    def disconnect(self, run_id: str) -> None:
        run = self.runs.get(run_id)
        if run is not None:
            run.connected = False

    # -- rollups -------------------------------------------------------------

    def fleet_registry(self) -> TelemetryRegistry:
        """All runs merged into one registry (fresh each call)."""
        merged = TelemetryRegistry(name="fleet")
        for run in self.runs.values():
            merged.merge(run.registry.export_snapshot())
        return merged

    def fleet_summary(self) -> dict[str, Any]:
        now = self.clock()
        runs = [
            run.summary(now, self.stall_after)
            for _, run in sorted(self.runs.items())
        ]
        totals = self.fleet_registry().counters()
        return {
            "uptime_seconds": round(now - self.started_at, 3),
            "frames_received": self.frames_received,
            "runs_total": len(runs),
            "runs_live": sum(1 for r in runs if not r["ended"]),
            "runs_healthy": sum(1 for r in runs if r["healthy"]),
            "runs": runs,
            "totals": {
                name: totals[name]
                for name in sorted(totals)
                if name.startswith(("sim.", "record.", "replay.", "encode"))
            },
        }

    def alerts(self) -> list[dict[str, Any]]:
        now = self.clock()
        fired: list[dict[str, Any]] = []
        for _, run in sorted(self.runs.items()):
            fired.extend(
                evaluate_rules(self.rules, run.summary(now, self.stall_after))
            )
        return fired

    def run_detail(self, run_id: str) -> dict[str, Any] | None:
        """Everything ``monitor --remote --run`` needs to re-render locally."""
        run = self.runs.get(run_id)
        if run is None:
            return None
        return {
            "summary": run.summary(self.clock(), self.stall_after),
            "objects": list(run.replay_objects),
            "instruments": run.registry.export_snapshot(),
        }


def render_fleet(summary: Mapping[str, Any]) -> str:
    """Human-facing fleet table for ``repro monitor --remote``."""
    title = (
        f"fleet: {summary.get('runs_total', 0)} run(s), "
        f"{summary.get('runs_live', 0)} live, "
        f"{summary.get('runs_healthy', 0)} healthy — "
        f"up {summary.get('uptime_seconds', 0.0):.0f}s, "
        f"{summary.get('frames_received', 0):,} frame(s)"
    )
    lines = [title, "=" * len(title)]
    runs = summary.get("runs") or []
    if not runs:
        lines.append("(no runs have shipped telemetry yet)")
        return "\n".join(lines)
    header = (
        f"{'run':<28} {'mode':<8} {'ranks':>5} {'events':>12} "
        f"{'chunks':>7} {'seq':>6} {'state':<10} flags"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for run in runs:
        if run.get("ended"):
            state = "ended"
        elif run.get("lost"):
            state = "LOST"
        elif run.get("stalled"):
            state = "STALLED"
        elif run.get("connected"):
            state = "live"
        else:
            state = "idle"
        flags = []
        if run.get("anomalies"):
            flags.append(f"z⚠×{run['anomalies']}")
        if run.get("frames_dropped"):
            flags.append(f"drop×{run['frames_dropped']}")
        if run.get("reconnects"):
            flags.append(f"reconn×{run['reconnects']}")
        if run.get("saturated"):
            flags.append("sat⚠")
        lines.append(
            f"{run.get('run_id', '?'):<28} {run.get('mode', '?'):<8} "
            f"{run.get('nprocs', 0):>5} {run.get('events', 0):>12,} "
            f"{run.get('chunks', 0):>7} {run.get('last_seq', 0):>6} "
            f"{state:<10} {' '.join(flags) or '-'}"
        )
    totals = summary.get("totals") or {}
    if totals:
        shown = list(totals.items())[:6]
        lines.append(
            "fleet totals: "
            + ", ".join(f"{name}={value:,}" for name, value in shown)
        )
    events_series = [float(r.get("events", 0)) for r in runs]
    if len(events_series) > 1:
        lines.append(
            f"events per run: {sparkline(events_series)} "
            f"(max {max(events_series):,.0f})"
        )
    return "\n".join(lines)
