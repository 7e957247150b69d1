"""Cross-run divergence diffing: why did run A differ from run B?

The replay guarantee exists so a developer can *compare* executions, yet
every earlier observability layer looks at one run at a time. This module
closes the loop: given two runs of the same program — two records under
different network seeds, or a record and its replay — it aligns their
matched receive events per rank by the paper's piggybacked
``(sender rank, Lamport clock)`` message identity (Definition 4) and
localizes the **first divergent match** per rank, with enough context to
read off the cause:

* the surrounding delivery windows of both runs,
* the epoch line in effect (per-sender clock ceilings of everything the
  rank had delivered before the divergence),
* the pool of sends that were *eligible* at the divergence point in both
  runs, reconstructed through the reference order (Definition 6) — the
  receiver chose differently from the same candidate set.

Beyond localization it aggregates a per-callsite **nondeterminism
profile**: normalized Kendall-tau distance and CDC permutation distance
between the two observed orders, plus per-sender clock skew for events
aligned by their per-sender arrival ordinal (FIFO channels + strictly
increasing piggybacked clocks make "the k-th message from sender r" a
stable cross-run identity even when clock values differ).

Both operands become :class:`~repro.analysis.columns.RehydratedRun` columns
first (:func:`~repro.analysis.columns.rehydrate_pair`): a record — an
archive directory, a :class:`~repro.replay.durable_store.RecordArchive` — by
one deterministic replay (archives carry no identifier columns; the paper's
own guarantee makes the diff exact), outcome streams held in memory — a
session result, a raw outcome mapping, a loaded trace — by one conversion.
The compare (:func:`compare_columns`) is numpy passes over those columns; a
:class:`Delivery` object exists only for what a report shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.columns import (  # the last two: re-exported wrappers
    RehydratedRun,
    rehydrate_pair,
    rehydrate_run,
    run_outcomes,
)
from repro.analysis.report import render_table, write_json

__all__ = [
    "CallsiteProfileDiff",
    "DivergenceReport",
    "RankDivergence",
    "Delivery",
    "compare_columns",
    "diff_runs",
    "divergence_timeline",
    "rehydrate_run",
    "run_outcomes",
    "validate_divergence_json",
    "write_divergence_json",
    "write_divergence_timeline",
]

DIVERGENCE_FORMAT = "cdc-divergence"
DIVERGENCE_VERSION = 1

#: default number of deliveries shown on each side of a divergence.
CONTEXT_EVENTS = 5

#: default lookahead when reconstructing the eligible-send pool.
POOL_WINDOW = 32


@dataclass(frozen=True)
class Delivery:
    """One matched receive in a rank's flattened delivery sequence."""

    position: int  # index within the rank's matched-receive stream
    callsite: str
    sender: int
    clock: int

    @property
    def identity(self) -> tuple[int, int]:
        """The paper's message identity: ``(sender rank, clock)``."""
        return (self.sender, self.clock)

    @property
    def ref_key(self) -> tuple[int, int]:
        """Definition 6 reference-order key: clock, then sender rank."""
        return (self.clock, self.sender)

    def describe(self) -> str:
        return (
            f"#{self.position} @ {self.callsite}: sender {self.sender}, "
            f"clock {self.clock}"
        )


@dataclass(frozen=True)
class RankDivergence:
    """The first point where one rank's two delivery sequences disagree."""

    rank: int
    #: callsite of the first differing delivery (run A's side when both
    #: exist; the surviving side when one stream ended early).
    callsite: str
    #: index into the rank's matched-receive sequence.
    position: int
    #: the delivery each run made at ``position`` (None = stream ended).
    a: Delivery | None
    b: Delivery | None
    #: surrounding deliveries of each run (``position`` ± context).
    context_a: tuple[Delivery, ...]
    context_b: tuple[Delivery, ...]
    #: epoch line in effect: per-sender max clock over run A's deliveries
    #: before the divergence (run A is the reference run).
    epoch: Mapping[int, int]
    #: sends eligible at the divergence in *both* runs, in reference
    #: order — the candidate set the two runs ordered differently.
    eligible: tuple[tuple[int, int], ...]

    @property
    def key(self) -> tuple[int, int]:
        """Causal order of divergences: earliest reference key involved."""
        keys = [d.ref_key for d in (self.a, self.b) if d is not None]
        return min(keys) if keys else (1 << 62, self.rank)

    def describe(self) -> str:
        a = self.a.describe() if self.a else "(stream ended)"
        b = self.b.describe() if self.b else "(stream ended)"
        return f"rank {self.rank} diverges at event {self.position}: A {a} | B {b}"


@dataclass(frozen=True)
class CallsiteProfileDiff:
    """Cross-run nondeterminism profile of one callsite (all ranks)."""

    callsite: str
    ranks: int
    diverged_ranks: int
    events_a: int
    events_b: int
    #: events present (by per-sender ordinal identity) in both runs.
    common: int
    #: normalized Kendall-tau distance between the two observed orders
    #: over the common events (0 = identical order, 1 = reversed).
    kendall_tau: float
    #: CDC permutation distance: moved events / common events when run B's
    #: order is expressed against run A's order as the reference.
    permutation_distance: float
    #: mean |clock_B - clock_A| over common events (per-sender ordinal
    #: alignment) — how far the runs' Lamport clocks drifted.
    mean_clock_skew: float
    max_clock_skew: int


@dataclass(frozen=True)
class DivergenceReport:
    """Everything ``repro diff`` knows about a pair of runs."""

    label_a: str
    label_b: str
    nprocs: int
    per_rank: tuple[RankDivergence, ...]
    profiles: tuple[CallsiteProfileDiff, ...]
    events_a: int
    events_b: int

    @property
    def identical(self) -> bool:
        return not self.per_rank

    @property
    def first(self) -> RankDivergence | None:
        """The causally earliest divergence across all ranks.

        Ordered by the earliest ``(clock, sender)`` reference key involved
        (tie-broken by rank), so repeated invocations on the same pair of
        runs name the same ``(rank, callsite, sender, clock)``.
        """
        if not self.per_rank:
            return None
        return min(self.per_rank, key=lambda d: (d.key, d.rank))

    # -- rendering -----------------------------------------------------------

    def render(self, max_ranks: int = 8) -> str:
        title = f"divergence diff: {self.label_a} vs {self.label_b}"
        lines = [title, "=" * len(title)]
        lines.append(
            f"{self.nprocs} ranks · {self.events_a:,} vs {self.events_b:,} "
            f"matched receives"
        )
        if self.identical:
            lines.append("runs are identical: no divergent match on any rank")
            return "\n".join(lines)
        first = self.first
        assert first is not None
        side = first.a if first.a is not None else first.b
        lines.append(
            f"first divergence: rank {first.rank} @ {first.callsite!r} "
            f"event {first.position} — sender {side.sender}, clock {side.clock}"
        )
        lines.append("")
        lines.append(
            render_table(
                f"first divergent match per rank ({len(self.per_rank)} diverged)",
                ["rank", "event", "callsite", self.label_a, self.label_b],
                [
                    (
                        d.rank,
                        d.position,
                        d.callsite,
                        f"s{d.a.sender} c{d.a.clock}" if d.a else "(ended)",
                        f"s{d.b.sender} c{d.b.clock}" if d.b else "(ended)",
                    )
                    for d in sorted(self.per_rank, key=lambda d: d.rank)[:max_ranks]
                ],
                note=(
                    f"… and {len(self.per_rank) - max_ranks} more rank(s)"
                    if len(self.per_rank) > max_ranks
                    else None
                ),
            )
        )
        lines.append("")
        lines.append(self._render_first_context(first))
        if self.profiles:
            lines.append("")
            lines.append(
                render_table(
                    "per-callsite nondeterminism profile",
                    [
                        "callsite",
                        "ranks",
                        "diverged",
                        "common",
                        "kendall-tau",
                        "perm dist",
                        "clock skew (mean/max)",
                    ],
                    [
                        (
                            p.callsite,
                            p.ranks,
                            p.diverged_ranks,
                            p.common,
                            f"{p.kendall_tau:.4f}",
                            f"{100 * p.permutation_distance:.1f}%",
                            f"{p.mean_clock_skew:.1f}/{p.max_clock_skew}",
                        )
                        for p in self.profiles
                    ],
                    note="tau/permutation over events aligned by per-sender ordinal",
                )
            )
        return "\n".join(lines)

    def _render_first_context(self, d: RankDivergence) -> str:
        lines = [f"context at rank {d.rank} (±{len(d.context_a)} deliveries):"]
        width = max(
            (len(c.describe()) for c in (*d.context_a, *d.context_b)), default=0
        )
        a_by_pos = {c.position: c for c in d.context_a}
        b_by_pos = {c.position: c for c in d.context_b}
        for pos in sorted(set(a_by_pos) | set(b_by_pos)):
            a = a_by_pos.get(pos)
            b = b_by_pos.get(pos)
            marker = "→" if pos == d.position else " "
            lines.append(
                f" {marker} {(a.describe() if a else '—').ljust(width)}  |  "
                f"{b.describe() if b else '—'}"
            )
        if d.epoch:
            ceilings = ", ".join(
                f"s{s}≤{c}" for s, c in sorted(d.epoch.items())
            )
            lines.append(f"  epoch line in effect ({self.label_a}): {ceilings}")
        if d.eligible:
            pool = ", ".join(f"(s{s}, c{c})" for s, c in d.eligible[:8])
            more = (
                f" … +{len(d.eligible) - 8}" if len(d.eligible) > 8 else ""
            )
            lines.append(
                f"  eligible sends at divergence (both runs, reference "
                f"order): {pool}{more}"
            )
        return "\n".join(lines)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        def delivery(d: Delivery | None) -> list | None:
            return None if d is None else [d.position, d.callsite, d.sender, d.clock]

        first = self.first
        return {
            "format": DIVERGENCE_FORMAT,
            "version": DIVERGENCE_VERSION,
            "a": self.label_a,
            "b": self.label_b,
            "nprocs": self.nprocs,
            "events_a": self.events_a,
            "events_b": self.events_b,
            "identical": self.identical,
            "first": None
            if first is None
            else {
                "rank": first.rank,
                "callsite": first.callsite,
                "position": first.position,
                "sender": (first.a or first.b).sender,
                "clock": (first.a or first.b).clock,
            },
            "ranks": [
                {
                    "rank": d.rank,
                    "callsite": d.callsite,
                    "position": d.position,
                    "a": delivery(d.a),
                    "b": delivery(d.b),
                    "epoch": {str(s): c for s, c in sorted(d.epoch.items())},
                    "eligible": [list(e) for e in d.eligible],
                    "context_a": [delivery(c) for c in d.context_a],
                    "context_b": [delivery(c) for c in d.context_b],
                }
                for d in sorted(self.per_rank, key=lambda d: d.rank)
            ],
            "callsites": [
                {
                    "callsite": p.callsite,
                    "ranks": p.ranks,
                    "diverged_ranks": p.diverged_ranks,
                    "events_a": p.events_a,
                    "events_b": p.events_b,
                    "common": p.common,
                    "kendall_tau": round(p.kendall_tau, 6),
                    "permutation_distance": round(p.permutation_distance, 6),
                    "mean_clock_skew": round(p.mean_clock_skew, 3),
                    "max_clock_skew": p.max_clock_skew,
                }
                for p in self.profiles
            ],
        }


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def _count_inversions(values: Sequence[int]) -> int:
    """Pairs ``i < j`` with ``values[i] > values[j]``: a bottom-up merge
    sort in numpy — per level one ``searchsorted`` of every right half into
    its left half (rows kept apart by an offset) and one sort of the rows."""
    v = np.asarray(values, dtype=np.int64)
    n = v.shape[0]
    if n < 2 or not (v[1:] < v[:-1]).any():
        return 0
    size = 1 << (n - 1).bit_length()
    blocks = np.full(size, n, dtype=np.int64)  # padding sorts last: never inverted
    blocks[:n] = np.unique(v, return_inverse=True)[1]  # dense ranks; ties stay ties
    count, width = 0, 1
    while width < size:
        blocks = blocks.reshape(-1, 2 * width)
        rows = np.arange(1, blocks.shape[0] + 1)
        apart = (rows[:, None] - 1) * (n + 1)
        left, right = blocks[:, :width] + apart, blocks[:, width:] + apart
        not_larger = np.searchsorted(left.ravel(), right.ravel(), side="right")
        count += int((rows.repeat(width) * width - not_larger).sum())
        blocks = np.sort(blocks, axis=1, kind="stable")
        width *= 2
    return count


# ---------------------------------------------------------------------------
# the diff
# ---------------------------------------------------------------------------


def diff_runs(
    a: Any, b: Any, label_a: str = "A", label_b: str = "B",
    context: int = CONTEXT_EVENTS, pool_window: int = POOL_WINDOW,
) -> DivergenceReport:  # fmt: skip
    """Align two runs and localize where (and how much) they disagree.

    ``a`` / ``b`` are anything :func:`rehydrate_pair` accepts. Run A is the
    reference: epoch lines and permutation distances are expressed against
    its order. The diff is symmetric in *whether* runs diverge, not in the
    bookkeeping conventions.
    """
    return compare_columns(*rehydrate_pair(a, b), label_a, label_b, context, pool_window)


def _shared_names(*runs: RehydratedRun) -> dict[str, int]:
    """callsite -> index into the sorted callsite names of ``runs``: each
    run interns ``(callsite, kind)`` in its own order; a diff compares names."""
    return {n: i for i, n in enumerate(sorted({c for r in runs for c in r.callsites}))}


class _Streams:
    """One operand's receive columns grouped by rank — a stable sort, so rows
    ``start[r] : start[r] + count[r]`` are the delivery stream of rank index
    ``r`` (into ``ranks``) in order — with callsites as indices into ``names``."""

    def __init__(self, run: RehydratedRun, ranks: np.ndarray, names: dict[str, int]):
        order = np.argsort(run.recv_rank, kind="stable")
        by_rank = run.recv_rank[order]
        shared = np.array([names[c] for c in run.callsites], dtype=np.int64)
        self.names = list(names)
        self.callsite = shared[run.recv_cs[order]]
        self.sender = run.recv_sender[order]
        self.clock = run.recv_clock[order]
        self.start = np.searchsorted(by_rank, ranks, side="left")
        self.count = np.searchsorted(by_rank, ranks, side="right") - self.start

    def window(self, r: int, lo: int, hi: int) -> list[Delivery]:
        """Deliveries ``lo .. hi-1`` of rank index ``r``, clipped to its stream."""
        start, n = int(self.start[r]), int(self.count[r])
        lo, hi = min(lo, n), min(hi, n)
        rows = slice(start + lo, start + hi)
        columns = (self.callsite[rows], self.sender[rows], self.clock[rows])
        return [
            Delivery(p, self.names[c], s, k)
            for p, c, s, k in zip(range(lo, hi), *map(np.ndarray.tolist, columns))
        ]


def compare_columns(
    a: RehydratedRun, b: RehydratedRun, label_a: str = "A", label_b: str = "B",
    context: int = CONTEXT_EVENTS, pool_window: int = POOL_WINDOW,
) -> DivergenceReport:  # fmt: skip
    """The compare step of :func:`diff_runs` alone: columns in, report out."""
    ranks = np.array(sorted({*a.ranks, *b.ranks}), dtype=np.int64)
    names = _shared_names(a, b)
    sa, sb = _Streams(a, ranks, names), _Streams(b, ranks, names)
    # all ranks' common prefixes end to end: row i is position offset[i] of rank index owner[i]
    limit = np.minimum(sa.count, sb.count)
    owner = np.repeat(np.arange(ranks.shape[0]), limit)
    offset = np.arange(owner.shape[0]) - np.repeat(np.cumsum(limit) - limit, limit)
    ia, ib = sa.start[owner] + offset, sb.start[owner] + offset
    differ = np.flatnonzero(
        (sa.callsite[ia] != sb.callsite[ib])
        | (sa.sender[ia] != sb.sender[ib])
        | (sa.clock[ia] != sb.clock[ib])
    )
    position = limit.copy()  # no mismatch: a strict prefix parts where it ends
    hit, first = np.unique(owner[differ], return_index=True)
    position[hit] = offset[differ[first]]
    diverged = np.flatnonzero((position < limit) | (sa.count != sb.count))
    per_rank = tuple(
        _rank_divergence(int(ranks[r]), r, int(position[r]), sa, sb, context, pool_window)
        for r in diverged.tolist()
    )
    profiles = tuple(_callsite_profiles(sa, sb, diverged))
    return DivergenceReport(
        label_a, label_b, ranks.shape[0], per_rank, profiles, sa.clock.shape[0], sb.clock.shape[0]
    )


def _rank_divergence(
    rank: int, r: int, pos: int, sa: _Streams, sb: _Streams, context: int, pool_window: int
) -> RankDivergence:
    """What the report shows of rank index ``r``, which parts at ``pos``."""
    lo = max(0, pos - context)
    context_a, context_b = (s.window(r, lo, pos + context + 1) for s in (sa, sb))
    a, b = context_a[pos - lo :][:1], context_b[pos - lo :][:1]  # [] where a stream ended
    # epoch line: per-sender max clock over what run A delivered before
    before = slice(int(sa.start[r]), int(sa.start[r]) + pos)
    senders, which = np.unique(sa.sender[before], return_inverse=True)
    ceiling = np.full(senders.shape[0], -1, dtype=np.int64)
    np.maximum.at(ceiling, which, sa.clock[before])
    # the eligible pool: identities both runs still deliver within the
    # lookahead window — the same sends were in flight; the runs merely
    # ordered them differently. Reference order makes the set readable.
    pending_a, pending_b = (
        {(d.sender, d.clock) for d in s.window(r, pos, pos + pool_window)} for s in (sa, sb)
    )
    return RankDivergence(
        rank=rank,
        callsite=(a or b)[0].callsite,
        position=pos,
        a=a[0] if a else None,
        b=b[0] if b else None,
        context_a=tuple(context_a),
        context_b=tuple(context_b),
        epoch={s: c for s, c in zip(senders.tolist(), ceiling.tolist()) if c > -1},
        eligible=tuple(sorted(pending_a & pending_b, key=lambda sc: (sc[1], sc[0]))),
    )


def _callsite_profiles(sa: _Streams, sb: _Streams, diverged: np.ndarray) -> list:
    """Per callsite, over all ranks. A *site* is one rank's stream at one
    callsite, a *channel* one sender's receives at a site; events align by
    per-sender arrival ordinal: the k-th receive on a channel is the same
    *message* in both runs (FIFO channels, strictly increasing per-sender
    clocks), even if its clock value drifted."""
    from repro.core.edit_distance import lis_length

    ncs, na = len(sa.names), sa.clock.shape[0]
    if not ncs:
        return []
    rank_index = np.arange(sa.count.shape[0])
    site = np.concatenate(
        [np.repeat(rank_index, sa.count), np.repeat(rank_index, sb.count)]
    ) * ncs + np.concatenate([sa.callsite, sb.callsite])
    senders, sender = np.unique(np.concatenate([sa.sender, sb.sender]), return_inverse=True)
    channels, channel = np.unique(site * senders.shape[0] + sender, return_inverse=True)
    held_a, held_b = (
        np.bincount(c, minlength=channels.shape[0]) for c in (channel[:na], channel[na:])
    )

    def common(chan: np.ndarray, mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
        """Rows the other run has too, ordered by (channel, ordinal)."""
        order = np.argsort(chan, kind="stable")
        chan = chan[order]
        ordinal = np.arange(chan.shape[0]) - (np.cumsum(mine) - mine)[chan]
        return order[ordinal < theirs[chan]]

    ia = common(channel[:na], held_a, held_b)
    ib = common(channel[na:], held_b, held_a)
    cs = sa.callsite[ia]
    skew = np.abs(sb.clock[ib] - sa.clock[ia])
    skew_sum, skew_max, pairs = (np.zeros(ncs, dtype=np.int64) for _ in range(3))
    np.add.at(skew_sum, cs, skew)
    np.maximum.at(skew_max, cs, skew)
    shared_sites, per_site = np.unique(site[:na][ia], return_counts=True)
    np.add.at(pairs, shared_sites % ncs, per_site * (per_site - 1) // 2)
    sites = np.unique(site)
    ranks = np.bincount(sites % ncs, minlength=ncs)
    split = np.bincount((sites % ncs)[np.isin(sites // ncs, diverged)], minlength=ncs)
    counts = [np.bincount(c, minlength=ncs) for c in (sa.callsite, sb.callsite, cs)]
    # run B's order of the common events as their positions in run A's: rows
    # are grouped by rank in both, so over one callsite this is every site's
    # permutation end to end, ascending site by site — its inversions and
    # its longest increasing subsequence are the sums of the sites'.
    by_b = np.lexsort((ib, cs))
    in_a = ia[by_b]
    bounds = np.searchsorted(cs[by_b], np.arange(ncs + 1)).tolist()
    table = np.stack([ranks, split, *counts, pairs, skew_sum, skew_max], axis=1).tolist()
    profiles = []
    for c, (n_ranks, n_split, events_a, events_b, n, n_pairs, skew, skew_top) in enumerate(table):
        if not events_a + events_b:
            continue
        order = in_a[bounds[c] : bounds[c + 1]]
        discordant = _count_inversions(order)
        moved = n - lis_length(order.tolist()) if discordant else 0
        profiles.append(
            CallsiteProfileDiff(
                sa.names[c], n_ranks, n_split, events_a, events_b, n,
                kendall_tau=discordant / n_pairs if n_pairs else 0.0,
                permutation_distance=moved / n if n else 0.0,
                mean_clock_skew=skew / n if n else 0.0,
                max_clock_skew=skew_top,
            )  # fmt: skip
        )
    profiles.sort(key=lambda p: (-max(p.events_a, p.events_b), p.callsite))
    return profiles


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_divergence_json(report: DivergenceReport, path: str) -> dict[str, Any]:
    return write_json(report.to_json(), path)


def validate_divergence_json(obj: Any) -> list[str]:
    """Schema check of a ``repro diff`` JSON export; returns problems."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["divergence report must be a JSON object"]
    if obj.get("format") != DIVERGENCE_FORMAT:
        problems.append(f"format must be {DIVERGENCE_FORMAT!r}")
    if obj.get("version") != DIVERGENCE_VERSION:
        problems.append(f"version must be {DIVERGENCE_VERSION}")
    for key, kind in (
        ("a", str),
        ("b", str),
        ("nprocs", int),
        ("events_a", int),
        ("events_b", int),
        ("identical", bool),
        ("ranks", list),
        ("callsites", list),
    ):
        if not isinstance(obj.get(key), kind):
            problems.append(f"{key} must be {kind.__name__}")
    if problems:
        return problems
    first = obj.get("first")
    if obj["identical"] != (first is None):
        problems.append("identical flag inconsistent with first divergence")
    if first is not None:
        for key in ("rank", "callsite", "position", "sender", "clock"):
            if key not in first:
                problems.append(f"first divergence missing {key!r}")
    for i, entry in enumerate(obj["ranks"]):
        for key in ("rank", "callsite", "position", "epoch", "eligible"):
            if key not in entry:
                problems.append(f"ranks[{i}] missing {key!r}")
        if entry.get("a") is None and entry.get("b") is None:
            problems.append(f"ranks[{i}] has neither side of the divergence")
    for i, entry in enumerate(obj["callsites"]):
        for key in ("callsite", "common", "kendall_tau", "permutation_distance"):
            if key not in entry:
                problems.append(f"callsites[{i}] missing {key!r}")
        tau = entry.get("kendall_tau", 0.0)
        if isinstance(tau, (int, float)) and not 0.0 <= tau <= 1.0:
            problems.append(f"callsites[{i}] kendall_tau {tau} outside [0, 1]")
    return problems


def divergence_timeline(
    report: DivergenceReport,
    a: Any,
    b: Any,
    window: int = CONTEXT_EVENTS,
) -> dict[str, Any]:
    """Merged Perfetto trace of *only* the divergent region of both runs.

    Reuses the causal flow machinery of :mod:`repro.obs.causal`: each run's
    region is a :class:`RehydratedRun` with a receive row per delivery inside
    the divergence window and a synthetic send row on the sender's track at
    the delivery's own identity, so each receive gets exactly one flow arrow
    — run A and run B side by side as process groups, arrows drawn only
    where the runs disagree. Timestamps are delivery positions in virtual
    microseconds, which preserves relative order — the property the diff is
    about. ``a`` / ``b`` are what :func:`diff_runs` took; hand in the
    :class:`RehydratedRun` pair it was given and nothing is replayed again.
    """
    from repro.obs.causal import merged_timeline

    diverged = sorted(report.per_rank, key=lambda d: d.rank)
    ranks = np.array([d.rank for d in diverged], dtype=np.int64)
    parted = np.array([d.position for d in diverged], dtype=np.int64)
    regions = []
    for label, run in zip((report.label_a, report.label_b), rehydrate_pair(a, b)):
        streams = _Streams(run, ranks, _shared_names(run))
        # every rank's window, clipped to its stream, end to end: row i is
        # position[i] of rank index owner[i]
        hi = np.minimum(parted + window + 1, streams.count)
        lo = np.minimum(np.maximum(parted - window, 0), hi)
        count = hi - lo
        owner = np.repeat(np.arange(ranks.shape[0]), count)
        position = lo[owner] + np.arange(owner.shape[0]) - (np.cumsum(count) - count)[owner]
        rows = streams.start[owner] + position
        sender, clock, receiver = streams.sender[rows], streams.clock[rows], ranks[owner]
        t = (position + 1) * 1e-6  # +1 keeps send slices at ts >= 0
        regions.append(
            RehydratedRun(
                f"{label} (divergent region)", 0,
                sender, receiver, np.zeros_like(sender), clock, t - 0.5e-6,
                receiver, streams.callsite[rows], sender, clock, t,
                streams.names, ["recv"] * len(streams.names), tuple(ranks.tolist()),
            )  # fmt: skip
        )
    return merged_timeline(regions, flow_category="divergence")


def write_divergence_timeline(
    report: DivergenceReport, a: Any, b: Any, path: str, window: int = CONTEXT_EVENTS
) -> dict[str, Any]:
    return write_json(divergence_timeline(report, a, b, window=window), path)
