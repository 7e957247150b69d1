"""Telemetry exporters: metrics JSONL and Chrome ``trace_event`` JSON.

Two machine-readable views of one :class:`~repro.obs.registry.TelemetryRegistry`:

* **Metrics JSONL** — one JSON object per line, one line per instrument
  (``{"type": "counter", "name": ..., "value": ...}``), plus a leading
  ``meta`` line identifying the run. Greppable, appendable, diffable.
* **Chrome trace JSON** — the ``trace_event`` format that
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ load
  directly: complete (``"ph": "X"``) events with microsecond timestamps
  relative to the registry's start, thread-name metadata so threads
  read as labelled rows, and final counter values as ``"C"`` samples.

Both formats ship a validator (:func:`validate_chrome_trace`,
:func:`validate_metrics_lines`) returning a list of human-readable
problems — empty means valid. CI runs them against a traced example; the
golden-file test pins the exact serialized shape.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.registry import NullRegistry, TelemetryRegistry

__all__ = [
    "chrome_trace",
    "metrics_lines",
    "validate_chrome_trace",
    "validate_metrics_lines",
    "write_chrome_trace",
    "write_metrics_jsonl",
]

#: Chrome trace phases the exporters emit (and the validator accepts).
#: ``s``/``t``/``f`` are flow events (causal arrows) — see repro.obs.causal.
_PHASES = frozenset({"X", "i", "C", "M", "s", "t", "f"})

#: flow phases additionally require a binding ``id``.
_FLOW_PHASES = frozenset({"s", "t", "f"})


# ---------------------------------------------------------------------------
# metrics JSONL
# ---------------------------------------------------------------------------


def metrics_lines(registry: TelemetryRegistry | NullRegistry) -> list[str]:
    """Serialize every instrument as one JSON line (sorted by name)."""
    meta = {
        "type": "meta",
        "registry": getattr(registry, "name", "null"),
        "enabled": registry.enabled,
        "instruments": len(registry.instruments()),
        "trace_events": len(registry.events),
        "dropped_events": registry.dropped_events,
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for snapshot in registry.metrics():
        lines.append(json.dumps(snapshot, sort_keys=True))
    return lines


def write_metrics_jsonl(
    registry: TelemetryRegistry | NullRegistry, path: str
) -> int:
    """Write the metrics dump; returns the number of lines written."""
    lines = metrics_lines(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


def validate_metrics_lines(lines: Iterable[str]) -> list[str]:
    """Schema-check a metrics JSONL dump; returns problems (empty = ok)."""
    problems: list[str] = []
    required = {
        "meta": ("registry", "enabled"),
        "counter": ("name", "value"),
        "gauge": ("name", "value", "max"),
        "histogram": ("name", "count", "total", "buckets"),
        # streaming lines (repro.obs.monitor.MetricsStreamWriter)
        "sample": ("t", "counters", "gauges"),
        "chunk": ("t", "rank", "callsite", "events", "stored_bytes"),
        "end": ("t",),
    }
    seen_meta = False
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {i}: not JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"line {i}: expected object, got {type(obj).__name__}")
            continue
        kind = obj.get("type")
        if kind not in required:
            problems.append(f"line {i}: unknown type {kind!r}")
            continue
        if kind == "meta":
            if i != 0:
                problems.append(f"line {i}: meta line must come first")
            seen_meta = True
        missing = [k for k in required[kind] if k not in obj]
        if missing:
            problems.append(f"line {i}: {kind} missing keys {missing}")
        if kind == "counter" and not isinstance(obj.get("value"), int):
            problems.append(f"line {i}: counter value must be an int")
        if kind == "histogram":
            buckets = obj.get("buckets")
            if not isinstance(buckets, dict) or not all(
                k.isdigit() and isinstance(v, int) for k, v in buckets.items()
            ):
                problems.append(f"line {i}: histogram buckets malformed")
    if not seen_meta:
        problems.append("no meta line")
    return problems


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------


def chrome_trace(
    registry: TelemetryRegistry | NullRegistry,
    process_name: str = "repro",
    pid: int | None = None,
) -> dict[str, Any]:
    """Build a ``chrome://tracing`` / Perfetto-loadable trace object.

    Events are sorted by start timestamp (monotone in file order — the
    golden test asserts this), timestamps are microseconds relative to the
    registry's construction, and each thread that produced spans gets a
    ``thread_name`` metadata row.
    """
    if pid is None:
        pid = os.getpid()
    t0 = registry.t0_ns
    events: list[dict[str, Any]] = []
    tids: dict[int, int] = {}
    for ev in sorted(registry.events, key=lambda e: (e.ts_ns, -e.dur_ns)):
        tid = tids.setdefault(ev.tid, len(tids))
        entry: dict[str, Any] = {
            "name": ev.name,
            "cat": ev.name.split(".", 1)[0],
            "ph": ev.phase,
            "ts": round((ev.ts_ns - t0) / 1000.0, 3),
            "pid": pid,
            "tid": tid,
        }
        if ev.phase == "X":
            entry["dur"] = round(ev.dur_ns / 1000.0, 3)
        if ev.attrs:
            entry["args"] = {k: _jsonable(v) for k, v in ev.attrs.items()}
        events.append(entry)
    end_ts = round((registry.last_event_ns - t0) / 1000.0, 3) if events else 0.0
    for counter in registry.metrics():
        if counter["type"] != "counter":
            continue
        events.append(
            {
                "name": counter["name"],
                "cat": "metrics",
                "ph": "C",
                "ts": end_ts,
                "pid": pid,
                "tid": 0,
                "args": {"value": counter["value"]},
            }
        )
    metadata: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for raw_tid, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"thread-{tid}" if tid else "main"},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "registry": getattr(registry, "name", "null"),
            "dropped_events": registry.dropped_events,
        },
    }


def write_chrome_trace(
    registry: TelemetryRegistry | NullRegistry,
    path: str,
    process_name: str = "repro",
    pid: int | None = None,
) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    from repro.analysis.report import write_json

    trace = chrome_trace(registry, process_name=process_name, pid=pid)
    return len(write_json(trace, path)["traceEvents"])


def validate_chrome_trace(trace: Mapping[str, Any]) -> list[str]:
    """Structural check of a trace object; returns problems (empty = ok).

    Verifies the ``traceEvents`` envelope, per-event required fields and
    phases, non-negative durations, and that non-metadata events appear in
    non-decreasing timestamp order (what the golden test and CI assert).
    """
    problems: list[str] = []
    if not isinstance(trace, Mapping):
        return ["trace is not an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, Sequence) or isinstance(events, (str, bytes)):
        return ["traceEvents missing or not a list"]
    last_ts: float | None = None
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            problems.append(f"event {i}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"event {i}: missing name")
        phase = ev.get("ph")
        if phase not in _PHASES:
            problems.append(f"event {i}: bad phase {phase!r}")
            continue
        if "pid" not in ev or "tid" not in ev:
            problems.append(f"event {i}: missing pid/tid")
        if phase == "M":
            continue  # metadata carries no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if phase == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
        if phase in _FLOW_PHASES and not isinstance(ev.get("id"), (int, str)):
            problems.append(f"event {i}: flow event missing id")
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: timestamp {ts} goes backwards (after {last_ts})"
            )
        last_ts = ts
    return problems


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
