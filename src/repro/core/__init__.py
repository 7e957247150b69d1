"""Clock Delta Compression — the paper's core contribution.

The public surface re-exported here covers the full Figure 5 pipeline:
quintuple events, record tables, redundancy elimination, permutation
encoding, LP encoding, epoch lines, chunk encode/decode, serialization,
and the Figure 13 method comparison.
"""

from repro.core.compression import (
    ALL_METHODS,
    DEFAULT_CHUNK_EVENTS,
    CompressionReport,
    Method,
    aggregate_reports,
    compare_methods,
    compress,
)
from repro.core import kernels
from repro.core.epoch import EpochLine
from repro.core.events import MFKind, MFOutcome, QuintupleRow, ReceiveEvent
from repro.core.lp_encoding import lp_encode
from repro.core.metrics import (
    ValueCountBreakdown,
    matched_events,
    monotonic_fraction,
    permutation_percentage,
    value_count_breakdown,
)
from repro.core.permutation import (
    PermutationDiff,
    apply_permutation,
    decode_permutation,
    encode_permutation,
)
from repro.core.pipeline import (
    CDCChunk,
    reconstruct_observed_order,
    reconstruct_table,
    reference_order,
)
from repro.core.columnar import (
    ColumnarTable,
    ColumnarTableBuilder,
    build_columnar_tables,
    encode_table,
)
from repro.core.record_table import RecordTable

__all__ = [
    "ALL_METHODS",
    "DEFAULT_CHUNK_EVENTS",
    "CDCChunk",
    "ColumnarTable",
    "ColumnarTableBuilder",
    "CompressionReport",
    "EpochLine",
    "MFKind",
    "MFOutcome",
    "Method",
    "PermutationDiff",
    "QuintupleRow",
    "ReceiveEvent",
    "RecordTable",
    "ValueCountBreakdown",
    "aggregate_reports",
    "apply_permutation",
    "build_columnar_tables",
    "compare_methods",
    "compress",
    "decode_permutation",
    "encode_permutation",
    "encode_table",
    "kernels",
    "lp_encode",
    "matched_events",
    "monotonic_fraction",
    "permutation_percentage",
    "reconstruct_observed_order",
    "reconstruct_table",
    "reference_order",
    "value_count_breakdown",
]
