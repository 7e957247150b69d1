"""Process-local telemetry registry: counters, gauges, log2 histograms.

The registry is the single sink for everything the instrumented pipeline
emits — metric instruments (created lazily, by name) and completed span
events (see :mod:`repro.obs.spans`). Two implementations share one
interface:

* :class:`TelemetryRegistry` — the real thing. Single-threaded: the
  engine thread updates instruments and the metrics stream snapshots
  them from that same thread (the engine's block tick), so nothing
  locks.
* :class:`NullRegistry` — the disabled fast path. ``counter()`` /
  ``gauge()`` / ``histogram()`` return one shared no-op instrument and
  ``record_span`` drops everything, so instrumented code never allocates
  per-event objects when telemetry is off.

Which one is *active* is a module-level switch: the environment variable
``REPRO_TELEMETRY`` picks the process default (off unless set truthy),
``set_registry`` / :func:`use_registry` swap it explicitly — that is what
``RecordSession(telemetry=...)`` does for the duration of a run.

Semantics worth pinning down:

* counters saturate at :data:`COUNTER_MAX` (2**63 - 1) instead of growing
  into arbitrary-precision ints — a counter is storage-bounded telemetry,
  not an accumulator;
* gauges remember both the last value and the high-water mark;
* histograms use fixed log2 buckets: bucket ``i`` holds values ``v`` with
  ``bit_length(v) == i`` (bucket 0 is ``v <= 0``), 64 buckets total, so
  any non-negative int maps in O(1) with no configuration.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "COUNTER_MAX",
    "HISTOGRAM_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "NullRegistry",
    "NULL_REGISTRY",
    "TelemetryRegistry",
    "TraceEvent",
    "env_enabled",
    "get_registry",
    "resolve_registry",
    "set_registry",
    "telemetry_enabled",
    "use_registry",
]

#: counters saturate here (signed 64-bit ceiling) instead of overflowing.
COUNTER_MAX = (1 << 63) - 1

#: fixed histogram bucket count: bucket i == values of bit_length i.
HISTOGRAM_BUCKETS = 64

#: environment switch for the process-default registry.
ENV_VAR = "REPRO_TELEMETRY"


class Counter:
    """Monotonically increasing count, saturating at :data:`COUNTER_MAX`."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: add() takes n >= 0, got {n}")
        self.value = min(self.value + n, COUNTER_MAX)

    @property
    def saturated(self) -> bool:
        """Did this counter hit the ceiling (its value is a lower bound)?"""
        return self.value >= COUNTER_MAX

    def snapshot(self) -> dict[str, Any]:
        snap = {"type": "counter", "name": self.name, "value": self.value}
        if self.saturated:
            snap["saturated"] = True
        return snap


class Gauge:
    """Last-value instrument that also remembers its high-water mark."""

    __slots__ = ("name", "value", "max", "updates")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def set_max(self, value: float) -> None:
        """Keep only the high-water mark (cheap for per-event callsites)."""
        if value > self.max:
            self.max = value
            self.value = value
        self.updates += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "value": self.value,
            "max": self.max if self.updates else 0.0,
            "updates": self.updates,
        }


class Histogram:
    """Fixed log2-bucket histogram over non-negative integers.

    Bucket ``i`` counts observations with ``bit_length == i``; bucket 0
    absorbs zero and negative values, the last bucket absorbs everything
    with 63+ bits. The bucket upper bound is ``2**i - 1``.
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    @staticmethod
    def bucket_index(value: int) -> int:
        if value <= 0:
            return 0
        return min(int(value).bit_length(), HISTOGRAM_BUCKETS - 1)

    @staticmethod
    def bucket_upper_bound(index: int) -> int:
        return (1 << index) - 1

    def observe(self, value: float) -> None:
        v = int(value)
        self.buckets[self.bucket_index(v)] += 1
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile_bound(self, q: float) -> int:
        """Upper bound of the bucket containing the q-quantile (0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return self.bucket_upper_bound(i)
        return self.bucket_upper_bound(HISTOGRAM_BUCKETS - 1)

    @property
    def saturated(self) -> bool:
        """Did any observation land in the open-ended last bucket?

        When true, ``max``/quantile bounds clip at the bucket ceiling and
        undersell the real tail — the run stats surface this so truncated
        telemetry is visible rather than silently optimistic.
        """
        return self.buckets[HISTOGRAM_BUCKETS - 1] > 0

    def snapshot(self) -> dict[str, Any]:
        nonzero = {
            str(i): n for i, n in enumerate(self.buckets) if n
        }
        snap = {
            "type": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.quantile_bound(0.5),
            "p99": self.quantile_bound(0.99),
            "buckets": nonzero,
        }
        if self.saturated:
            snap["saturated"] = True
        return snap


@dataclass(frozen=True)
class TraceEvent:
    """One completed span (or instant marker) in the trace buffer."""

    name: str
    ts_ns: int  # absolute perf_counter_ns at span start
    dur_ns: int  # 0 for instant events
    depth: int
    phase: str = "X"  # Chrome trace phase: X = complete, i = instant
    attrs: Mapping[str, Any] = field(default_factory=dict)


class TelemetryRegistry:
    """Single-threaded home for a run's instruments and trace buffer."""

    enabled = True

    def __init__(
        self,
        name: str = "repro",
        clock=time.perf_counter_ns,
        max_events: int = 1_000_000,
    ) -> None:
        self.name = name
        self.clock = clock
        self.max_events = max_events
        self.t0_ns = clock()
        #: wall-clock (epoch seconds) at construction, for report rendering.
        self.created_at = time.time()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._events: list[TraceEvent] = []
        self.dropped_events = 0
        self.last_event_ns = self.t0_ns

    # -- instruments --------------------------------------------------------

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        if not isinstance(inst, cls):
            raise TypeError(
                f"instrument {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- trace buffer --------------------------------------------------------

    def record_span(
        self,
        name: str,
        ts_ns: int,
        dur_ns: int,
        depth: int,
        attrs: Mapping[str, Any] | None = None,
        phase: str = "X",
    ) -> None:
        end = ts_ns + dur_ns
        if end > self.last_event_ns:
            self.last_event_ns = end
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append(
            TraceEvent(
                name=name,
                ts_ns=ts_ns,
                dur_ns=dur_ns,
                depth=depth,
                phase=phase,
                attrs=attrs or {},
            )
        )

    @property
    def events(self) -> list[TraceEvent]:
        return self._events

    def seconds_since_last_event(self) -> float:
        return max(0.0, (self.clock() - self.last_event_ns) / 1e9)

    # -- snapshots -----------------------------------------------------------

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        return sorted(self._instruments.values(), key=lambda i: i.name)

    def metrics(self) -> list[dict[str, Any]]:
        """Snapshot every instrument, sorted by name."""
        return [inst.snapshot() for inst in self.instruments()]

    def counters(self) -> dict[str, int]:
        return {
            i.name: i.value for i in self.instruments() if isinstance(i, Counter)
        }

    def gauges(self) -> dict[str, float]:
        return {
            i.name: (i.max if i.updates else 0.0)
            for i in self.instruments()
            if isinstance(i, Gauge)
        }

    def histograms(self) -> dict[str, dict[str, Any]]:
        return {
            i.name: i.snapshot()
            for i in self.instruments()
            if isinstance(i, Histogram)
        }

    def saturated_instruments(self) -> list[str]:
        """Names of counters/histograms whose values are clipped."""
        return [
            i.name
            for i in self.instruments()
            if isinstance(i, (Counter, Histogram)) and i.saturated
        ]


class _NullInstrument:
    """Shared do-nothing instrument for the disabled path."""

    __slots__ = ()

    name = "<null>"
    kind = "null"
    value = 0

    def add(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled telemetry: every operation is a no-op, nothing allocates."""

    enabled = False
    name = "null"
    dropped_events = 0
    t0_ns = 0
    last_event_ns = 0

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def record_span(self, *args, **kwargs) -> None:
        pass

    @property
    def events(self) -> list[TraceEvent]:
        return []

    def seconds_since_last_event(self) -> float:
        return 0.0

    def instruments(self) -> list:
        return []

    def metrics(self) -> list[dict[str, Any]]:
        return []

    def counters(self) -> dict[str, int]:
        return {}

    def gauges(self) -> dict[str, float]:
        return {}

    def histograms(self) -> dict[str, dict[str, Any]]:
        return {}

    def saturated_instruments(self) -> list[str]:
        return []


#: the one shared disabled registry; identity-comparable.
NULL_REGISTRY = NullRegistry()


def env_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Is telemetry requested via ``REPRO_TELEMETRY``? Off by default."""
    env = os.environ if environ is None else environ
    return env.get(ENV_VAR, "0").strip().lower() not in ("", "0", "false", "off", "no")


_active: TelemetryRegistry | NullRegistry = (
    TelemetryRegistry() if env_enabled() else NULL_REGISTRY
)


def get_registry() -> TelemetryRegistry | NullRegistry:
    """The registry instrumented code currently reports into."""
    return _active


def telemetry_enabled() -> bool:
    return _active.enabled


def set_registry(
    registry: TelemetryRegistry | NullRegistry | None,
) -> TelemetryRegistry | NullRegistry:
    """Install ``registry`` (None means disabled); returns the previous one."""
    global _active
    previous = _active
    _active = NULL_REGISTRY if registry is None else registry
    return previous


@contextmanager
def use_registry(
    registry: TelemetryRegistry | NullRegistry | None,
) -> Iterator[TelemetryRegistry | NullRegistry]:
    """Scoped :func:`set_registry` — what sessions wrap a run in."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def resolve_registry(
    telemetry: bool | TelemetryRegistry | NullRegistry | None,
) -> TelemetryRegistry | NullRegistry:
    """Map a session's ``telemetry=`` argument to a registry.

    ``None`` keeps whatever is active (the env default or an installed
    registry), ``False`` forces the null registry, ``True`` builds a fresh
    one, and a registry instance is used as-is.
    """
    if telemetry is None:
        return get_registry()
    if telemetry is False:
        return NULL_REGISTRY
    if telemetry is True:
        return TelemetryRegistry()
    if isinstance(telemetry, (TelemetryRegistry, NullRegistry)):
        return telemetry
    raise TypeError(
        f"telemetry must be None, bool, or a TelemetryRegistry, got {telemetry!r}"
    )
