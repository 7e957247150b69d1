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

Inputs are per-rank :class:`~repro.core.events.MFOutcome` streams; the
helpers accept a session :class:`~repro.replay.session.RunResult`, a raw
outcome mapping, a :class:`~repro.replay.durable_store.RecordArchive`, or
an archive directory. Archives carry no explicit identifier columns (CDC
drops them), so they are rehydrated by a deterministic replay — the
paper's own guarantee makes the diff exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.analysis.report import render_table
from repro.core.events import MFOutcome

__all__ = [
    "CallsiteProfileDiff",
    "DivergenceReport",
    "RankDivergence",
    "Delivery",
    "diff_runs",
    "divergence_timeline",
    "kendall_tau_distance",
    "paired_outcomes",
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


def _flatten(stream: Sequence[MFOutcome]) -> list[Delivery]:
    """A rank's outcome stream as its matched-receive delivery sequence."""
    out: list[Delivery] = []
    for outcome in stream:
        for ev in outcome.matched:
            out.append(Delivery(len(out), outcome.callsite, ev.rank, ev.clock))
    return out


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
# input adaptation
# ---------------------------------------------------------------------------


def workload_meta(source: Any) -> dict[str, Any] | None:
    """Best-effort workload metadata from a run-shaped source, or None.

    Lets one side's committed manifest stand in for the other's in a diff:
    a recording that died mid-run leaves rank frames but no manifest, so
    its salvaged archive cannot name its own workload.
    """
    from repro.errors import RecordFormatError
    from repro.replay.durable_store import open_run

    try:
        run = open_run(source)
    except (TypeError, RecordFormatError, OSError):  # TypeError: not a record
        return None
    if "workload" not in run.meta:
        return None
    return dict(run.meta, nprocs=run.meta.get("nprocs", run.archive.nprocs))


def rehydrate_run(
    source: Any,
    network_seed: int = 0,
    workload_fallback: Mapping[str, Any] | None = None,
    flow: Any = None,
    keep_outcomes: bool = True,
):
    """Deterministically replay an archive-shaped source; returns the
    :class:`~repro.replay.session.RunResult`.

    ``source`` is anything :func:`~repro.replay.durable_store.open_run`
    takes. Archives store no identifier columns or timestamps, so the run
    is regenerated by replaying the workload named in the manifest (or in
    ``workload_fallback``, for a manifest-less crashed recording) —
    Theorem 2 makes the regenerated ``(sender, clock)`` streams byte-equal
    to the recorded ones, for any ``network_seed``, and the simulator's
    virtual clock makes the regenerated timings exact too. A directory
    whose recording died mid-flight is opened in salvage mode, so callers
    localize the truncation point instead of refusing the archive.
    ``flow=`` attaches a flow recorder to the replay, which is how the
    critical-path analysis recovers a causal DAG with edge weights from a
    bare archive; callers that consume only the recorder should pass
    ``keep_outcomes=False`` — per-event outcome objects for a million-event
    archive cost more than the replay itself.
    """
    from repro.replay.durable_store import open_run
    from repro.replay.session import ReplaySession

    run = open_run(source)
    return ReplaySession(
        run.program(workload_fallback),
        run,
        network_seed=network_seed,
        mode=run.mode,
        flow=flow,
        keep_outcomes=keep_outcomes,
    ).run()


def run_outcomes(
    source: Any,
    network_seed: int = 0,
    workload_fallback: Mapping[str, Any] | None = None,
) -> dict[int, list[MFOutcome]]:
    """Per-rank outcome streams from any run-shaped source.

    Accepts a :class:`~repro.replay.session.RunResult` (or anything with
    an ``outcomes`` mapping), a raw ``{rank: [MFOutcome, ...]}`` mapping,
    or anything :func:`rehydrate_run` takes, which is replayed.
    """
    outcomes = getattr(source, "outcomes", None)
    if outcomes is not None and not isinstance(source, Mapping):
        source = outcomes
    if isinstance(source, Mapping) and (
        not source or isinstance(next(iter(source.values())), (list, tuple))
    ):
        return {int(r): list(stream) for r, stream in source.items()}
    replayed = rehydrate_run(
        source, network_seed=network_seed, workload_fallback=workload_fallback
    )
    return {r: list(s) for r, s in replayed.outcomes.items()}


def paired_outcomes(a: Any, b: Any) -> tuple[dict, dict]:
    """:func:`run_outcomes` of both sides of a diff: each directory opened
    and replayed once, either side's :func:`workload_meta` the fallback."""
    from repro.replay.durable_store import open_run

    a, b = (open_run(s) if isinstance(s, str) else s for s in (a, b))
    fallback = workload_meta(a) or workload_meta(b)
    return tuple(run_outcomes(s, workload_fallback=fallback) for s in (a, b))


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def kendall_tau_distance(order: Sequence[int]) -> float:
    """Normalized Kendall-tau distance of a permutation vs the identity.

    ``order`` is a permutation of ``0..n-1`` (run B's event sequence
    expressed as indices into run A's sequence); the result is the
    fraction of discordant pairs: inversions / C(n, 2).
    """
    n = len(order)
    if n < 2:
        return 0.0
    inversions = _count_inversions(list(order))
    return inversions / (n * (n - 1) / 2)


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


# ---------------------------------------------------------------------------
# the diff
# ---------------------------------------------------------------------------


def diff_runs(
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
    outs_a, outs_b = paired_outcomes(a, b)
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


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_divergence_json(report: DivergenceReport, path: str) -> dict[str, Any]:
    obj = report.to_json()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return obj


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

    Reuses the causal flow machinery of :mod:`repro.obs.causal`: for every
    delivery inside the divergence window a synthetic send slice is placed
    on the sender's row at the delivery's own identity, so each receive
    gets exactly one flow arrow — run A and run B side by side as process
    groups, arrows drawn only where the runs disagree. Timestamps are
    delivery positions in virtual microseconds (outcome streams carry no
    wall clock), which preserves relative order — the property the diff is
    about.
    """
    from repro.obs.causal import FlowRecorder, merged_timeline

    outs = dict(zip((report.label_a, report.label_b), paired_outcomes(a, b)))
    windows = {
        d.rank: (max(0, d.position - window), d.position + window + 1)
        for d in report.per_rank
    }
    recorders = []
    for label, streams in outs.items():
        rec = FlowRecorder(f"{label} (divergent region)")
        for rank, (lo, hi) in sorted(windows.items()):
            for d in _flatten(streams.get(rank, []))[lo:hi]:
                t = (d.position + 1) * 1e-6  # +1 keeps send slices at ts >= 0
                rec.on_send(d.sender, rank, 0, d.clock, t - 0.5e-6)
                rec.receives.append(
                    _flow_receive(rank, d.callsite, d.sender, d.clock, t)
                )
        recorders.append(rec)
    return merged_timeline(recorders, flow_category="divergence")


def _flow_receive(rank: int, callsite: str, sender: int, clock: int, t: float):
    from repro.obs.causal import FlowReceive

    return FlowReceive(rank, callsite, "recv", sender, clock, t)


def write_divergence_timeline(
    report: DivergenceReport, a: Any, b: Any, path: str, window: int = CONTEXT_EVENTS
) -> dict[str, Any]:
    trace = divergence_timeline(report, a, b, window=window)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return trace
