"""The five compression methods compared in Figure 13.

Given a rank's MF outcome stream (observation order, callsite-labelled),
each method produces the bytes that would reach storage:

* ``RAW``            — Figure 4 rows bit-packed at 162 bits/row, no gzip
                       ("w/o Compression").
* ``GZIP``           — zlib over the same raw byte stream.
* ``CDC_RE``         — redundancy elimination only (Section 3.2), merged
                       callsites, zlib.
* ``CDC_RE_PE_LPE``  — + permutation encoding and LP encoding
                       (Sections 3.3–3.4), merged callsites, zlib.
* ``CDC``            — the complete method: + per-callsite MF
                       identification (Section 4.4), zlib.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.columnar import build_columnar_tables, encode_table
from repro.core.events import MFOutcome, outcomes_to_rows
from repro.core.formats import (
    serialize_cdc_chunks,
    serialize_raw_rows,
    serialize_re_tables,
)
from repro.obs import get_registry, span

#: Callsite label used when MF identification is disabled (merged tables).
MERGED_CALLSITE = "<merged>"

#: Default chunk size (matched events per chunk) for the encoders.
DEFAULT_CHUNK_EVENTS = 4096

#: zlib level used everywhere (gzip default).
ZLIB_LEVEL = 6


class Method(enum.Enum):
    """Record compression methods of Figure 13."""

    RAW = "w/o Compression"
    GZIP = "gzip"
    CDC_RE = "CDC (RE)"
    CDC_RE_PE_LPE = "CDC (RE + PE + LPE)"
    CDC = "CDC"


ALL_METHODS: tuple[Method, ...] = tuple(Method)


def _merge_callsites(outcomes: Sequence[MFOutcome]) -> list[MFOutcome]:
    """Relabel an outcome stream onto a single merged callsite."""
    return [
        MFOutcome(MERGED_CALLSITE, o.kind, o.matched)
        for o in outcomes
    ]


def compress(
    outcomes: Sequence[MFOutcome],
    method: Method,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> bytes:
    """Produce the storage bytes for one rank's outcome stream."""
    registry = get_registry()
    if not registry.enabled:
        return _compress_parts(outcomes, method, chunk_events)[1]
    with span("compress", method=method.name) as sp:
        payload_len, data = _compress_parts(outcomes, method, chunk_events)
        sp.set(bytes_pre_zlib=payload_len, bytes_out=len(data))
    key = method.name.lower()
    registry.counter(f"compress.{key}.calls").add()
    registry.counter(f"compress.{key}.bytes_pre_zlib").add(payload_len)
    registry.counter(f"compress.{key}.bytes_out").add(len(data))
    return data


def _compress_parts(
    outcomes: Sequence[MFOutcome],
    method: Method,
    chunk_events: int,
) -> tuple[int, bytes]:
    """``(pre-zlib payload bytes, storage bytes)`` for one rank's stream.

    The first element attributes how much of the final size is the
    structural encoding (RE / PE / LPE tables) versus the trailing zlib
    pass — ``repro stats`` reports the ratio between the two.
    """
    if method is Method.RAW or method is Method.GZIP:
        raw = serialize_raw_rows(list(outcomes_to_rows(outcomes)))
        return len(raw), raw if method is Method.RAW else zlib.compress(raw, ZLIB_LEVEL)
    # only the complete method keeps callsites apart (MF identification)
    merged = outcomes if method is Method.CDC else _merge_callsites(outcomes)
    tables = [t for ts in build_columnar_tables(merged, chunk_events).values() for t in ts]
    if method is Method.CDC_RE:
        payload = serialize_re_tables([t.to_record_table() for t in tables])
    else:
        payload = serialize_cdc_chunks([encode_table(t) for t in tables])
    return len(payload), zlib.compress(payload, ZLIB_LEVEL)


@dataclass(frozen=True)
class CompressionReport:
    """Sizes for one rank (or one aggregated run) across methods."""

    num_receive_events: int
    sizes: Mapping[Method, int]

    def bytes_per_event(self, method: Method) -> float:
        """Average storage bytes per matched receive (0.51 B for CDC in §6.1)."""
        if self.num_receive_events == 0:
            return 0.0
        return self.sizes[method] / self.num_receive_events

    def compression_rate(self, method: Method, baseline: Method = Method.RAW) -> float:
        """``size(baseline) / size(method)`` — the paper's compression rate."""
        size = self.sizes[method]
        if size == 0:
            return float("inf")
        return self.sizes[baseline] / size

    def rate_vs_gzip(self, method: Method = Method.CDC) -> float:
        """CDC's advantage over gzip (5.7x in the paper's MCB run)."""
        return self.sizes[Method.GZIP] / max(self.sizes[method], 1)


def compare_methods(
    outcomes: Sequence[MFOutcome],
    methods: Sequence[Method] = ALL_METHODS,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> CompressionReport:
    """Run every method over one outcome stream and report sizes."""
    events = sum(len(o.matched) for o in outcomes)
    sizes = {m: len(compress(outcomes, m, chunk_events)) for m in methods}
    return CompressionReport(events, sizes)


def aggregate_reports(reports: Sequence[CompressionReport]) -> CompressionReport:
    """Sum per-rank reports into a run-total report (Figure 13 is a total)."""
    if not reports:
        return CompressionReport(0, {m: 0 for m in ALL_METHODS})
    methods = reports[0].sizes.keys()
    return CompressionReport(
        sum(r.num_receive_events for r in reports),
        {m: sum(r.sizes[m] for r in reports) for m in methods},
    )
