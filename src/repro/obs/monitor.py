"""Live run monitoring: a streaming metrics JSONL and its renderer.

Two halves, joined by a file:

* :class:`MetricsStreamWriter` — a background thread a session attaches
  (``metrics_stream=path``) that appends JSON lines while the run is in
  flight: a leading ``meta`` line, periodic ``sample`` lines (elapsed
  wall time plus the progress counters and queue gauges), one ``chunk``
  line per flushed CDC chunk (scraped from the registry's trace buffer,
  which is append-only — the cursor never races the engine thread), and
  a final ``end`` line after the full instrument dump. The file is
  flushed line-by-line, so an external ``repro monitor --follow`` sees
  progress while the run is alive — and whatever the stream holds after
  a crash is still schema-valid (the fault-injection tests assert this).

* :func:`render_monitor` over a :class:`MonitorState` — the pure
  rendering half the ``repro monitor`` CLI drives: per-epoch progress
  from the chunk lines, compression-ratio anomaly flags (z-score against
  the running mean, Welford's algorithm), and queue-occupancy sparklines
  over the sample history.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, TextIO

from repro.obs.registry import NullRegistry, TelemetryRegistry

__all__ = [
    "MetricsStreamWriter",
    "MonitorState",
    "RunningStats",
    "drain_chunk_objects",
    "render_monitor",
    "sample_object",
    "sparkline",
]

#: counters worth streaming every sample (progress + pipeline health).
SAMPLE_COUNTERS = (
    "sim.events",
    "record.flushes",
    "replay.delivered_events",
    "replay.pooled_events",
    "replay.blocked_polls",
    "queue.enqueue_stalls",
)

#: gauges worth streaming every sample (occupancy high-waters).
SAMPLE_GAUGES = (
    "queue.occupancy_high_water",
    "replay.pool_occupancy",
)

#: chunk compression-ratio z-score beyond which a chunk is flagged.
ANOMALY_Z = 3.0

#: minimum chunk count before anomaly detection has a usable baseline.
ANOMALY_MIN_CHUNKS = 8

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sample_object(
    registry: TelemetryRegistry | NullRegistry, t: float
) -> dict[str, Any]:
    """One ``sample`` stream object: progress counters + occupancy gauges.

    :class:`MetricsStreamWriter` writes it as a JSONL line and
    :meth:`MonitorState.update` reads it back.
    """
    counters = registry.counters()
    gauges = registry.gauges()
    return {
        "type": "sample",
        "t": round(t, 6),
        "counters": {k: counters[k] for k in SAMPLE_COUNTERS if k in counters},
        "gauges": {k: gauges[k] for k in SAMPLE_GAUGES if k in gauges},
    }


def drain_chunk_objects(
    registry: TelemetryRegistry | NullRegistry, cursor: int, t: float
) -> tuple[list[dict[str, Any]], int]:
    """Fresh ``record.chunk`` trace markers as ``chunk`` stream objects.

    The trace buffer is append-only and the cursor only moves forward, so
    reading a prefix from another thread is safe without locking the
    registry. Returns the new objects and the advanced cursor.
    """
    events = registry.events
    end = len(events)
    objects: list[dict[str, Any]] = []
    for i in range(cursor, end):
        ev = events[i]
        if ev.name != "record.chunk":
            continue
        attrs = ev.attrs
        objects.append(
            {
                "type": "chunk",
                "t": round(t, 6),
                "rank": attrs.get("rank", -1),
                "callsite": attrs.get("callsite", "?"),
                "events": attrs.get("events", 0),
                "stored_bytes": attrs.get("stored_bytes", 0),
            }
        )
    return objects, end


class MetricsStreamWriter:
    """Append registry snapshots to a JSONL file while a run is alive."""

    def __init__(
        self,
        path: str,
        registry: TelemetryRegistry | NullRegistry,
        interval: float = 0.05,
        clock=time.perf_counter,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.path = path
        self.registry = registry
        self.interval = interval
        self.clock = clock
        self._fh: TextIO | None = None
        self._t0 = 0.0
        self._event_cursor = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.lines_written = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricsStreamWriter":
        self._fh = open(self.path, "w", encoding="utf-8")
        self._t0 = self.clock()
        self._write(
            {
                "type": "meta",
                "stream": True,
                "registry": getattr(self.registry, "name", "null"),
                "enabled": self.registry.enabled,
                "interval": self.interval,
            }
        )
        self._thread = threading.Thread(
            target=self._loop, name="repro-metrics-stream", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> int:
        """Stop sampling, dump final instruments + end marker; returns lines."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._fh is None:
            return self.lines_written
        self._sample()  # one last observation of the finished run
        for snapshot in self.registry.metrics():
            self._write(snapshot)
        self._write(
            {
                "type": "end",
                "t": round(self.clock() - self._t0, 6),
                "trace_events": len(self.registry.events),
                "dropped_events": self.registry.dropped_events,
            }
        )
        self._fh.close()
        self._fh = None
        return self.lines_written

    def __enter__(self) -> "MetricsStreamWriter":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # -- sampling ------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        with self._lock:
            if self._fh is None:
                return
            t = self.clock() - self._t0
            chunks, self._event_cursor = drain_chunk_objects(
                self.registry, self._event_cursor, t
            )
            for obj in chunks:
                self._write(obj)
            self._write(sample_object(self.registry, t))

    def _write(self, obj: Mapping[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()
        self.lines_written += 1


# ---------------------------------------------------------------------------
# monitor side: parse + render
# ---------------------------------------------------------------------------


class RunningStats:
    """Welford's online mean/variance — the anomaly baseline."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    def zscore(self, value: float) -> float:
        std = self.std
        if std == 0.0:
            # a flat baseline has no scale: any deviation from it is
            # infinitely surprising, no deviation is none at all.
            if self.count < 2 or value == self.mean:
                return 0.0
            return math.copysign(math.inf, value - self.mean)
        return (value - self.mean) / std


@dataclass
class ChunkAnomaly:
    """A chunk whose compression ratio sits outside the running band."""

    index: int
    rank: int
    callsite: str
    bytes_per_event: float
    zscore: float

    def describe(self) -> str:
        return (
            f"chunk #{self.index} (rank {self.rank} @ {self.callsite}): "
            f"{self.bytes_per_event:.3f} B/event, z={self.zscore:+.1f}"
        )


@dataclass
class MonitorState:
    """Everything parsed so far from one metrics stream."""

    meta: dict[str, Any] = field(default_factory=dict)
    samples: list[dict[str, Any]] = field(default_factory=list)
    chunks: list[dict[str, Any]] = field(default_factory=list)
    #: per (rank, callsite): chunk count and event total (the epoch ladder).
    epochs: dict[tuple[int, str], tuple[int, int]] = field(default_factory=dict)
    anomalies: list[ChunkAnomaly] = field(default_factory=list)
    ratio: RunningStats = field(default_factory=RunningStats)
    instruments: dict[str, dict[str, Any]] = field(default_factory=dict)
    ended: bool = False
    end_info: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def update(self, obj: Mapping[str, Any]) -> None:
        kind = obj.get("type")
        if kind == "meta":
            self.meta = dict(obj)
        elif kind == "sample":
            self.samples.append(dict(obj))
        elif kind == "chunk":
            self._push_chunk(dict(obj))
        elif kind == "end":
            self.ended = True
            self.end_info = dict(obj)
        elif kind in ("counter", "gauge", "histogram"):
            self.instruments[str(obj.get("name"))] = dict(obj)
        else:
            self.problems.append(f"unknown line type {kind!r}")

    def feed_lines(self, lines: Iterable[str]) -> int:
        """Parse raw JSONL lines into the state; returns lines consumed."""
        n = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                self.problems.append(f"bad JSON line: {exc}")
                continue
            self.update(obj)
            n += 1
        return n

    def _push_chunk(self, chunk: dict[str, Any]) -> None:
        self.chunks.append(chunk)
        key = (int(chunk.get("rank", -1)), str(chunk.get("callsite", "?")))
        count, events = self.epochs.get(key, (0, 0))
        self.epochs[key] = (count + 1, events + int(chunk.get("events", 0)))
        events_n = max(1, int(chunk.get("events", 0)))
        ratio = float(chunk.get("stored_bytes", 0)) / events_n
        if (
            self.ratio.count >= ANOMALY_MIN_CHUNKS
            and abs(self.ratio.zscore(ratio)) > ANOMALY_Z
        ):
            self.anomalies.append(
                ChunkAnomaly(
                    index=len(self.chunks) - 1,
                    rank=key[0],
                    callsite=key[1],
                    bytes_per_event=ratio,
                    zscore=self.ratio.zscore(ratio),
                )
            )
        self.ratio.push(ratio)

    # -- derived views -------------------------------------------------------

    def latest_counter(self, name: str) -> int:
        for sample in reversed(self.samples):
            counters = sample.get("counters", {})
            if name in counters:
                return int(counters[name])
        inst = self.instruments.get(name)
        if inst and inst.get("type") == "counter":
            return int(inst.get("value", 0))
        return 0

    def gauge_series(self, name: str) -> list[float]:
        return [
            float(s["gauges"][name])
            for s in self.samples
            if name in s.get("gauges", {})
        ]


def sparkline(values: Iterable[float], width: int = 32) -> str:
    """Unicode mini-chart of a series, downsampled to ``width`` cells."""
    series = [float(v) for v in values]
    if not series:
        return ""
    if len(series) > width:
        # max-pool into width buckets so spikes survive downsampling
        step = len(series) / width
        series = [
            max(series[int(i * step): max(int(i * step) + 1, int((i + 1) * step))])
            for i in range(width)
        ]
    lo, hi = min(series), max(series)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(series)
    return "".join(
        _SPARK_CHARS[int((v - lo) / span * (len(_SPARK_CHARS) - 1))]
        for v in series
    )


def render_monitor(state: MonitorState, max_epochs: int = 12) -> str:
    """Human-facing monitor screen for the current state of a stream."""
    name = state.meta.get("registry", "?")
    status = "finished" if state.ended else "live"
    title = f"monitor: {name} [{status}]"
    lines = [title, "=" * len(title)]
    t = state.samples[-1]["t"] if state.samples else 0.0
    lines.append(
        f"t={t:.3f}s · {len(state.samples)} sample(s) · "
        f"{len(state.chunks)} chunk(s)"
    )
    progress = [
        ("sim events", state.latest_counter("sim.events")),
        ("record flushes", state.latest_counter("record.flushes")),
        ("replay delivered", state.latest_counter("replay.delivered_events")),
        ("replay pooled", state.latest_counter("replay.pooled_events")),
    ]
    for label, value in progress:
        if value:
            lines.append(f"  {label}: {value:,}")
    if state.epochs:
        lines.append("epoch progress (chunks flushed per rank/callsite):")
        for (rank, callsite), (count, events) in sorted(state.epochs.items())[
            :max_epochs
        ]:
            lines.append(
                f"  rank {rank} @ {callsite}: epoch {count} ({events:,} events)"
            )
        if len(state.epochs) > max_epochs:
            lines.append(f"  … and {len(state.epochs) - max_epochs} more")
    if state.ratio.count:
        lines.append(
            f"chunk compression: mean {state.ratio.mean:.3f} B/event "
            f"± {state.ratio.std:.3f} over {state.ratio.count} chunk(s)"
        )
    if state.anomalies:
        lines.append("compression anomalies (|z| > 3):")
        for anomaly in state.anomalies[-5:]:
            lines.append(f"  ⚠ {anomaly.describe()}")
    for gauge in SAMPLE_GAUGES:
        series = state.gauge_series(gauge)
        if series:
            lines.append(f"{gauge}: {sparkline(series)} (max {max(series):g})")
    if state.ended:
        dropped = state.end_info.get("dropped_events", 0)
        lines.append(
            f"stream ended at t={state.end_info.get('t', 0.0):.3f}s "
            f"({state.end_info.get('trace_events', 0):,} trace events"
            + (f", {dropped:,} DROPPED" if dropped else "")
            + ")"
        )
    if state.problems:
        lines.append(f"stream problems: {len(state.problems)}")
        for p in state.problems[:3]:
            lines.append(f"  ! {p}")
    return "\n".join(lines)
