"""Fleet telemetry aggregation: wire protocol, shipper, server, state.

The remote half of :mod:`repro.obs`: sessions attach a
:class:`TelemetryShipper` (``telemetry_sink="tcp://host:port"``) that
streams registry snapshot deltas to a :class:`TelemetryAggregator`
(``repro serve-telemetry``), which merges them per run and fleet-wide
and answers the queries behind ``repro monitor --remote`` and
``repro fleet status/alerts``.
"""

from repro.obs.agg.shipper import (
    ShipperStats,
    TelemetryShipper,
    parse_sink,
    snapshot_delta,
)
from repro.obs.agg.state import (
    DEFAULT_ALERT_RULES,
    FleetState,
    RunState,
    evaluate_rules,
    render_fleet,
    validate_alert_rules,
)
from repro.obs.agg.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    encode_frame,
    validate_frame,
    validate_frames,
)

def __getattr__(name: str):
    # the asyncio server is resolved on first use (PEP 562): a session that
    # ships telemetry imports this package for the shipper alone.
    if name not in ("AggregatorServer", "TelemetryAggregator", "query_aggregator"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.obs.agg import server

    return getattr(server, name)


__all__ = [
    "AggregatorServer",
    "DEFAULT_ALERT_RULES",
    "FleetState",
    "FrameDecoder",
    "FrameError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RunState",
    "ShipperStats",
    "TelemetryAggregator",
    "TelemetryShipper",
    "encode_frame",
    "evaluate_rules",
    "parse_sink",
    "query_aggregator",
    "render_fleet",
    "snapshot_delta",
    "validate_alert_rules",
    "validate_frame",
    "validate_frames",
]
