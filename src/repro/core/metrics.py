"""Record/replay metrics used across the evaluation section.

Pure functions over outcome streams and encoded chunks: permutation
percentage (Figure 14), clock-order similarity (Figure 1), value-count
accounting (the 55 → 19 worked example), and compression-rate helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.events import MFOutcome, ReceiveEvent
from repro.core.permutation import encode_permutation, observed_as_reference_indices
from repro.core.pipeline import reference_order


def matched_events(outcomes: Iterable[MFOutcome]) -> list[ReceiveEvent]:
    """Flatten an outcome stream into its observed receive sequence."""
    return [ev for o in outcomes for ev in o.matched]


def permutation_percentage(observed: Sequence[ReceiveEvent]) -> float:
    """``Np / N``: fraction of receives that deviate from the reference order.

    The Figure 14 similarity metric — 37.5% (3/8) for the Figure 7 example.
    ``Np`` is the number of moved elements in the minimal edit-distance
    decomposition; 0.0 for an empty or perfectly-ordered sequence.
    """
    if not observed:
        return 0.0
    ref = reference_order(observed)
    indices = observed_as_reference_indices(
        [ev.key for ev in observed], [ev.key for ev in ref]
    )
    return encode_permutation(indices).permutation_percentage()


def monotonic_fraction(clocks: Sequence[int]) -> float:
    """Fraction of consecutive receive pairs with non-decreasing clocks.

    Quantifies Figure 1's observation that piggybacked clocks "almost always
    monotonically increase" in receive order. 1.0 for 0- or 1-long input.
    """
    if len(clocks) <= 1:
        return 1.0
    good = sum(1 for a, b in zip(clocks, clocks[1:]) if a <= b)
    return good / (len(clocks) - 1)


@dataclass(frozen=True)
class ValueCountBreakdown:
    """Stored-value counts at each pipeline stage (Section 3's 55→23→19)."""

    raw: int
    after_re: int
    after_cdc: int

    @property
    def reduction_factor(self) -> float:
        return self.raw / self.after_cdc if self.after_cdc else float("inf")


def value_count_breakdown(outcomes: Sequence[MFOutcome]) -> ValueCountBreakdown:
    """Compute the worked-example accounting for any outcome stream."""
    from repro.core.columnar import build_columnar_tables, encode_table
    from repro.core.compression import _merge_callsites

    tables = build_columnar_tables(_merge_callsites(outcomes), chunk_events=None)
    flat = [t for ts in tables.values() for t in ts]
    records = [t.to_record_table() for t in flat]
    raw = sum(r.raw_value_count() for r in records)
    after_re = sum(r.encoded_value_count() for r in records)
    after_cdc = sum(encode_table(t).value_count() for t in flat)
    return ValueCountBreakdown(raw, after_re, after_cdc)


def events_per_second(num_events: int, elapsed_seconds: float) -> float:
    """Throughput helper (guards the zero-division corner)."""
    if elapsed_seconds <= 0:
        return 0.0
    return num_events / elapsed_seconds
