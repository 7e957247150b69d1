"""repro.obs — run telemetry: counters, gauges, histograms, span tracing.

The observability layer the rest of the pipeline reports into. Everything
funnels through one process-local registry (:func:`get_registry`), off by
default: enable it per process with ``REPRO_TELEMETRY=1``, per run with
``RecordSession(telemetry=True)`` / ``ReplaySession(telemetry=True)``, or
explicitly with :func:`use_registry`. When disabled, every entry point is
a shared no-op — instrumented hot paths pay a pointer compare, not an
allocation.

Typical use::

    from repro.obs import TelemetryRegistry, use_registry, span

    reg = TelemetryRegistry()
    with use_registry(reg):
        with span("my.stage", items=n):
            ...
        reg.counter("my.count").add(n)

    from repro.obs import write_chrome_trace, write_metrics_jsonl
    write_chrome_trace(reg, "trace.json")     # chrome://tracing / Perfetto
    write_metrics_jsonl(reg, "metrics.jsonl")
"""

import importlib

from repro.obs.causal import (
    ColumnarFlowRecorder,
    FlowMatchStats,
    merged_timeline,
    write_timeline,
)
from repro.obs.export import (
    chrome_trace,
    metrics_lines,
    validate_chrome_trace,
    validate_metrics_lines,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.registry import (
    COUNTER_MAX,
    HISTOGRAM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NULL_REGISTRY,
    NullRegistry,
    TelemetryRegistry,
    TraceEvent,
    env_enabled,
    get_registry,
    resolve_registry,
    set_registry,
    telemetry_enabled,
    use_registry,
)
from repro.obs.spans import NOOP_SPAN, Span, event, span
from repro.obs.stats import RunStats, build_run_stats

#: names resolved on first use (PEP 562), by the module that defines them:
#: together a fifth of what ``import repro.obs`` used to cost, and every
#: core module imports this package for ``get_registry`` / ``span``.
_LAZY = {
    "ledger": "LedgerEntry RunLedger TrendFlag entry_from_result render_run render_runs "
    "render_trend trend_report validate_ledger_lines",
    "monitor": "MetricsStreamWriter MonitorState render_monitor sparkline",
}
_HOME = {name: module for module, names in _LAZY.items() for name in names.split()}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"repro.obs.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "COUNTER_MAX",
    "ColumnarFlowRecorder",
    "HISTOGRAM_BUCKETS",
    "Counter",
    "FlowMatchStats",
    "Gauge",
    "Histogram",
    "LedgerEntry",
    "MetricsStreamWriter",
    "MonitorState",
    "NOOP_SPAN",
    "NULL_REGISTRY",
    "NullRegistry",
    "RunLedger",
    "RunStats",
    "Span",
    "TelemetryRegistry",
    "TraceEvent",
    "TrendFlag",
    "build_run_stats",
    "chrome_trace",
    "entry_from_result",
    "env_enabled",
    "event",
    "get_registry",
    "merged_timeline",
    "metrics_lines",
    "render_monitor",
    "render_run",
    "render_runs",
    "render_trend",
    "resolve_registry",
    "set_registry",
    "span",
    "sparkline",
    "telemetry_enabled",
    "trend_report",
    "use_registry",
    "validate_chrome_trace",
    "validate_ledger_lines",
    "validate_metrics_lines",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "write_timeline",
]
