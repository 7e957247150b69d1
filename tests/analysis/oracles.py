"""Differential oracle for :func:`repro.analysis.diff_runs`, and
:func:`chunk_breakdown`, the one-chunk size model the size tests read.

The per-event object compare that ``diff_runs`` ran before it worked on
columns, moved here verbatim (PR 22): every matched receive becomes a
:class:`~repro.analysis.divergence.Delivery`, the first divergence is a
Python scan, the per-callsite profile dicts of tuples and a recursive
merge-sort inversion count. It takes per-rank outcome mappings, one per
side; ``oracle_outcomes`` gets them from anything the production function
accepts, by its own replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.analysis.divergence import (
    CONTEXT_EVENTS,
    POOL_WINDOW,
    CallsiteProfileDiff,
    Delivery,
    DivergenceReport,
    RankDivergence,
)
from repro.analysis.size_model import SizeBreakdown, chunks_breakdown
from repro.core.events import MFOutcome
from repro.core.pipeline import CDCChunk


def chunk_breakdown(chunk: CDCChunk, callsite_id: int = 0) -> SizeBreakdown:
    """:func:`~repro.analysis.size_model.chunks_breakdown` of one chunk."""
    return chunks_breakdown([chunk], {chunk.callsite: callsite_id})


def oracle_outcomes(source: Any, fallback: Mapping[str, Any] | None = None):
    """Per-rank outcome streams of ``source``: a mapping or a result with
    outcomes as given, a record by one replay that keeps its outcomes."""
    from repro.replay.durable_store import open_run
    from repro.replay.session import ReplaySession

    outcomes = getattr(source, "outcomes", None)
    if outcomes is not None and not isinstance(source, Mapping):
        source = outcomes
    if isinstance(source, Mapping):
        return {int(r): list(stream) for r, stream in source.items()}
    run = open_run(source)
    replayed = ReplaySession(run.program(fallback), run, mode=run.mode).run()
    return {r: list(s) for r, s in replayed.outcomes.items()}


def _flatten(stream: Sequence[MFOutcome]) -> list[Delivery]:
    """A rank's outcome stream as its matched-receive delivery sequence."""
    out: list[Delivery] = []
    for outcome in stream:
        for ev in outcome.matched:
            out.append(Delivery(len(out), outcome.callsite, ev.rank, ev.clock))
    return out


def _count_inversions(values: list[int]) -> int:
    """Merge-sort inversion count — O(n log n)."""
    if len(values) < 2:
        return 0
    mid = len(values) // 2
    left, right = values[:mid], values[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    i = j = k = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            values[k] = left[i]
            i += 1
        else:
            values[k] = right[j]
            j += 1
            count += len(left) - i
        k += 1
    values[k:] = left[i:] or right[j:]
    return count


def diff_runs_oracle(
    a: Any,
    b: Any,
    label_a: str = "A",
    label_b: str = "B",
    context: int = CONTEXT_EVENTS,
    pool_window: int = POOL_WINDOW,
) -> DivergenceReport:
    """Align two runs and localize where (and how much) they disagree.

    ``a`` / ``b`` are anything :func:`run_outcomes` accepts. Run A is the
    reference: epoch lines and permutation distances are expressed against
    its order. The diff is symmetric in *whether* runs diverge, not in the
    bookkeeping conventions.
    """
    outs_a, outs_b = oracle_outcomes(a), oracle_outcomes(b)
    ranks = sorted(set(outs_a) | set(outs_b))
    per_rank: list[RankDivergence] = []
    flat_a: dict[int, list[Delivery]] = {}
    flat_b: dict[int, list[Delivery]] = {}
    for rank in ranks:
        seq_a = _flatten(outs_a.get(rank, []))
        seq_b = _flatten(outs_b.get(rank, []))
        flat_a[rank], flat_b[rank] = seq_a, seq_b
        divergence = _first_divergence(rank, seq_a, seq_b, context, pool_window)
        if divergence is not None:
            per_rank.append(divergence)
    profiles = _callsite_profiles(flat_a, flat_b, {d.rank for d in per_rank})
    return DivergenceReport(
        label_a=label_a,
        label_b=label_b,
        nprocs=len(ranks),
        per_rank=tuple(per_rank),
        profiles=tuple(profiles),
        events_a=sum(len(s) for s in flat_a.values()),
        events_b=sum(len(s) for s in flat_b.values()),
    )


def _first_divergence(
    rank: int,
    seq_a: list[Delivery],
    seq_b: list[Delivery],
    context: int,
    pool_window: int,
) -> RankDivergence | None:
    limit = min(len(seq_a), len(seq_b))
    pos = next(
        (
            p
            for p in range(limit)
            if (seq_a[p].callsite, seq_a[p].identity)
            != (seq_b[p].callsite, seq_b[p].identity)
        ),
        None,
    )
    if pos is None:
        if len(seq_a) == len(seq_b):
            return None
        pos = limit  # one stream is a strict prefix of the other
    a = seq_a[pos] if pos < len(seq_a) else None
    b = seq_b[pos] if pos < len(seq_b) else None
    lo = max(0, pos - context)
    hi = pos + context + 1
    epoch: dict[int, int] = {}
    for d in seq_a[:pos]:
        if epoch.get(d.sender, -1) < d.clock:
            epoch[d.sender] = d.clock
    # the eligible pool: identities both runs still deliver within the
    # lookahead window — the same sends were in flight; the runs merely
    # ordered them differently. Reference order makes the set readable.
    pending_a = {d.identity for d in seq_a[pos: pos + pool_window]}
    pending_b = {d.identity for d in seq_b[pos: pos + pool_window]}
    eligible = sorted(pending_a & pending_b, key=lambda sc: (sc[1], sc[0]))
    return RankDivergence(
        rank=rank,
        callsite=(a or b).callsite,
        position=pos,
        a=a,
        b=b,
        context_a=tuple(seq_a[lo:hi]),
        context_b=tuple(seq_b[lo:hi]),
        epoch=epoch,
        eligible=tuple(eligible),
    )


@dataclass
class _ProfileAccumulator:
    ranks: set = field(default_factory=set)
    diverged: set = field(default_factory=set)
    events_a: int = 0
    events_b: int = 0
    common: int = 0
    pairs: int = 0
    discordant: float = 0.0
    moved: int = 0
    skew_sum: int = 0
    skew_max: int = 0


def _callsite_profiles(
    flat_a: Mapping[int, list[Delivery]],
    flat_b: Mapping[int, list[Delivery]],
    diverged_ranks: set,
) -> list[CallsiteProfileDiff]:
    from repro.core.permutation import encode_permutation

    acc: dict[str, _ProfileAccumulator] = {}
    for rank in sorted(set(flat_a) | set(flat_b)):
        by_cs_a = _by_callsite(flat_a.get(rank, []))
        by_cs_b = _by_callsite(flat_b.get(rank, []))
        for cs in sorted(set(by_cs_a) | set(by_cs_b)):
            entry = acc.setdefault(cs, _ProfileAccumulator())
            entry.ranks.add(rank)
            if rank in diverged_ranks:
                entry.diverged.add(rank)
            a_seq = by_cs_a.get(cs, [])
            b_seq = by_cs_b.get(cs, [])
            entry.events_a += len(a_seq)
            entry.events_b += len(b_seq)
            # align by per-sender arrival ordinal: the k-th receive from
            # sender r is the same *message* in both runs (FIFO channels,
            # strictly increasing per-sender clocks), even if its clock
            # value drifted.
            a_ids = _ordinal_identities(a_seq)
            b_ids = _ordinal_identities(b_seq)
            common = set(a_ids) & set(b_ids)
            n = len(common)
            entry.common += n
            if n >= 2:
                index_a = {
                    ident: i
                    for i, ident in enumerate(
                        ident for ident in a_ids if ident in common
                    )
                }
                order = [
                    index_a[ident] for ident in b_ids if ident in common
                ]
                entry.pairs += n * (n - 1) // 2
                entry.discordant += _count_inversions(list(order))
                entry.moved += encode_permutation(order).num_moved
            clocks_a = dict(zip(a_ids, (d.clock for d in a_seq)))
            clocks_b = dict(zip(b_ids, (d.clock for d in b_seq)))
            for ident in common:
                skew = abs(clocks_b[ident] - clocks_a[ident])
                entry.skew_sum += skew
                if skew > entry.skew_max:
                    entry.skew_max = skew
    profiles = [
        CallsiteProfileDiff(
            callsite=cs,
            ranks=len(e.ranks),
            diverged_ranks=len(e.diverged),
            events_a=e.events_a,
            events_b=e.events_b,
            common=e.common,
            kendall_tau=(e.discordant / e.pairs) if e.pairs else 0.0,
            permutation_distance=(e.moved / e.common) if e.common else 0.0,
            mean_clock_skew=(e.skew_sum / e.common) if e.common else 0.0,
            max_clock_skew=e.skew_max,
        )
        for cs, e in acc.items()
    ]
    profiles.sort(key=lambda p: (-max(p.events_a, p.events_b), p.callsite))
    return profiles


def _by_callsite(seq: list[Delivery]) -> dict[str, list[Delivery]]:
    out: dict[str, list[Delivery]] = {}
    for d in seq:
        out.setdefault(d.callsite, []).append(d)
    return out


def _ordinal_identities(seq: list[Delivery]) -> list[tuple[int, int]]:
    """(sender, k) identity of each delivery: its per-sender arrival ordinal."""
    seen: dict[int, int] = {}
    out: list[tuple[int, int]] = []
    for d in seq:
        k = seen.get(d.sender, 0) + 1
        seen[d.sender] = k
        out.append((d.sender, k))
    return out


def divergence_timeline_oracle(
    report: DivergenceReport,
    a: Any,
    b: Any,
    window: int = CONTEXT_EVENTS,
) -> dict[str, Any]:
    """Merged Perfetto trace of *only* the divergent region of both runs.

    Reuses the causal flow machinery of :mod:`repro.obs.causal`: for every
    delivery inside the divergence window a synthetic send slice is placed
    on the sender's row at the delivery's own identity, so each receive
    gets exactly one flow arrow — run A and run B side by side as process
    groups, arrows drawn only where the runs disagree. Timestamps are
    delivery positions in virtual microseconds (outcome streams carry no
    wall clock), which preserves relative order — the property the diff is
    about. The region is fed hop by hop through the recorder's engine hooks.
    """
    from types import SimpleNamespace

    from repro.obs.causal import ColumnarFlowRecorder, merged_timeline

    outs = dict(
        zip((report.label_a, report.label_b), (oracle_outcomes(a), oracle_outcomes(b)))
    )
    windows = {
        d.rank: (max(0, d.position - window), d.position + window + 1)
        for d in report.per_rank
    }
    recorders = []
    for label, streams in outs.items():
        rec = ColumnarFlowRecorder(f"{label} (divergent region)")
        for rank, (lo, hi) in sorted(windows.items()):
            for d in _flatten(streams.get(rank, []))[lo:hi]:
                t = (d.position + 1) * 1e-6  # +1 keeps send slices at ts >= 0
                rec.on_send(d.sender, rank, 0, d.clock, t - 0.5e-6)
                hop = SimpleNamespace(rank=d.sender, clock=d.clock)
                rec.on_delivery(rank, d.callsite, "recv", t, [hop])
        recorders.append(rec)
    return merged_timeline(recorders, flow_category="divergence")
