"""Causal critical-path and wait-state analysis: why was this run slow?

The archive already encodes a complete happens-before order: the paper's
piggybacked ``(sender rank, Lamport clock)`` identities (Definition 4)
are the cross-rank edges of the run's causal DAG, and per-rank delivery
order supplies the local edges. This module turns that DAG into an
answer to "which rank made the run slow, and who was it waiting on?":

* **Critical path** — the longest weighted causal chain ending at the
  run's last event, found by walking each event's *binding predecessor*
  (the matched send when it posted after the receiver was ready, the
  local predecessor otherwise).
* **Wait states** — per matched receive, the gap since the rank's
  previous event splits into *late-sender* time (the rank sat idle
  before the message was even posted), *in-flight* time (posted but not
  yet delivered: blocked-on-send / transit), and residual local work;
  per rank, *imbalance* is how long the rank finished before the run's
  global end.
* **Slack** — ``|send post − local ready|`` per matched receive: the
  margin by which the binding-predecessor decision was made. Small slack
  means the critical path is fragile — a slightly later sender reroutes
  it.

Everything runs as vectorized numpy passes over columnar identifier
arrays (``lexsort`` for per-rank program order, key-matched
``searchsorted`` for receive→send joins, ``bincount`` for attribution)
— no per-event Python objects — so a 256-rank, million-event archive
analyzes in seconds. Archives carry no timestamps; they are rehydrated
by one deterministic replay (:func:`repro.analysis.columns.rehydrate`:
Theorem 2 makes the regenerated streams — and the simulator's virtual
clock — exact), so the analysis is read-only: the archive bytes are
never touched.

One caveat pinned by the causal-test suite: per-rank virtual clocks are
*not* globally synchronized, so a receiver's local delivery time may
precede the sender's local post time. Every edge weight therefore clips
at zero; binding decisions still compare raw times, which keeps the
attribution deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.analysis.columns import RehydratedRun, rehydrate
from repro.analysis.report import render_histogram, render_table, write_json

__all__ = [
    "CriticalPathResult",
    "analyze_critical_path",
    "validate_explain_json",
    "write_explain_json",
]

EXPLAIN_FORMAT = "cdc-explain"
EXPLAIN_VERSION = 1

#: slack histogram resolution for the terminal report and the JSON export.
SLACK_BINS = 10


@dataclass
class CriticalPathResult:
    """Output of :func:`analyze_critical_path` — blame tables + the path.

    All times are virtual microseconds (the simulator's deterministic
    clock), so results of a seeded workload are byte-reproducible and the
    golden-file test can pin the blame attribution exactly.
    """

    label: str
    nranks: int
    sends: int
    receives: int
    matched: int
    #: run span: first event to last event, global.
    duration_us: float
    #: per-rank arrays, indexed by rank (length ``nranks``).
    rank_path_us: np.ndarray
    rank_late_sender_us: np.ndarray
    rank_in_flight_us: np.ndarray
    rank_imbalance_us: np.ndarray
    rank_slack_max_us: np.ndarray
    #: per-callsite arrays, parallel to :attr:`callsites` / :attr:`kinds`.
    callsites: list[str]
    kinds: list[str]
    callsite_receives: np.ndarray
    callsite_late_sender_us: np.ndarray
    callsite_in_flight_us: np.ndarray
    callsite_slack_max_us: np.ndarray
    #: critical path as plain-data edge segments (timeline-ready).
    path: list[dict[str, Any]] = field(default_factory=list)
    #: slack histogram over matched receives: (bin upper edge µs, count).
    slack_histogram: list[tuple[float, int]] = field(default_factory=list)

    # -- headline metrics ----------------------------------------------------

    @property
    def path_duration_us(self) -> float:
        return float(sum(e["t1_us"] - e["t0_us"] for e in self.path))

    @property
    def critical_path_share(self) -> float:
        """Largest single-rank share of critical-path time (concentration)."""
        total = float(self.rank_path_us.sum())
        if total <= 0.0:
            return 0.0
        return float(self.rank_path_us.max()) / total

    @property
    def top_path_rank(self) -> int:
        return int(self.rank_path_us.argmax()) if self.nranks else 0

    @property
    def max_slack_us(self) -> float:
        if self.nranks == 0:
            return 0.0
        return float(self.rank_slack_max_us.max())

    @property
    def match_rate(self) -> float:
        return self.matched / self.receives if self.receives else 0.0

    # -- blame tables --------------------------------------------------------

    def top_ranks(self, k: int = 10) -> list[dict[str, Any]]:
        """Ranks ordered by critical-path share, then total wait."""
        wait = self.rank_late_sender_us + self.rank_in_flight_us
        order = np.lexsort((-wait, -self.rank_path_us))
        total = float(self.rank_path_us.sum()) or 1.0
        rows = []
        for r in order[:k]:
            rows.append(
                {
                    "rank": int(r),
                    "path_us": float(self.rank_path_us[r]),
                    "path_share": float(self.rank_path_us[r]) / total,
                    "late_sender_us": float(self.rank_late_sender_us[r]),
                    "in_flight_us": float(self.rank_in_flight_us[r]),
                    "imbalance_us": float(self.rank_imbalance_us[r]),
                    "slack_max_us": float(self.rank_slack_max_us[r]),
                }
            )
        return rows

    def top_callsites(self, k: int = 10) -> list[dict[str, Any]]:
        """Callsites ordered by total wait (late-sender + in-flight)."""
        wait = self.callsite_late_sender_us + self.callsite_in_flight_us
        order = np.argsort(-wait, kind="stable")
        rows = []
        for c in order[:k]:
            rows.append(
                {
                    "callsite": self.callsites[c],
                    "kind": self.kinds[c],
                    "receives": int(self.callsite_receives[c]),
                    "late_sender_us": float(self.callsite_late_sender_us[c]),
                    "in_flight_us": float(self.callsite_in_flight_us[c]),
                    "slack_max_us": float(self.callsite_slack_max_us[c]),
                }
            )
        return rows

    def render(self, top: int = 10) -> str:
        """Human blame report: path summary + rank and callsite tables."""
        head = (
            f"critical path: {len(self.path)} edges, "
            f"{self.path_duration_us:.1f} µs of {self.duration_us:.1f} µs run "
            f"span; top rank {self.top_path_rank} holds "
            f"{100 * self.critical_path_share:.1f}% of path time "
            f"(max slack {self.max_slack_us:.1f} µs)"
        )
        rank_rows = [
            (
                r["rank"],
                f"{100 * r['path_share']:.1f}%",
                r["path_us"],
                r["late_sender_us"],
                r["in_flight_us"],
                r["imbalance_us"],
                r["slack_max_us"],
            )
            for r in self.top_ranks(top)
        ]
        cs_rows = [
            (
                c["callsite"],
                c["kind"],
                c["receives"],
                c["late_sender_us"],
                c["in_flight_us"],
                c["slack_max_us"],
            )
            for c in self.top_callsites(top)
        ]
        parts = [
            head,
            "",
            render_table(
                f"blame by rank ({self.label})",
                ["rank", "path%", "path µs", "late-sender µs", "in-flight µs",
                 "imbalance µs", "slack max µs"],
                rank_rows,
            ),
            "",
            render_table(
                f"blame by callsite ({self.label})",
                ["callsite", "kind", "recvs", "late-sender µs", "in-flight µs",
                 "slack max µs"],
                cs_rows,
            ),
        ]
        if self.slack_histogram:
            edge_scale = max(e for e, _ in self.slack_histogram) or 1.0
            parts += [
                "",
                render_histogram(
                    "slack distribution (bin upper edge as % of max slack)",
                    [(e / edge_scale, c) for e, c in self.slack_histogram],
                ),
            ]
        return "\n".join(parts)

    # -- exports -------------------------------------------------------------

    def timeline_slices(self) -> list[dict[str, Any]]:
        """Plain-data path segments for ``merged_timeline(critical_path=)``.

        Kept free of analysis types so ``repro.obs`` never imports back
        into the analysis layer.
        """
        return [dict(e) for e in self.path]

    def to_json(self) -> dict[str, Any]:
        return {
            "format": EXPLAIN_FORMAT,
            "version": EXPLAIN_VERSION,
            "label": self.label,
            "nprocs": self.nranks,
            "sends": self.sends,
            "receives": self.receives,
            "matched": self.matched,
            "match_rate": self.match_rate,
            "duration_us": self.duration_us,
            "path_edges": len(self.path),
            "path_duration_us": self.path_duration_us,
            "critical_path_share": self.critical_path_share,
            "top_path_rank": self.top_path_rank,
            "max_slack_us": self.max_slack_us,
            "ranks": self.top_ranks(self.nranks or 1),
            "callsites": self.top_callsites(len(self.callsites) or 1),
            "slack_histogram": [
                {"edge_us": float(e), "count": int(c)}
                for e, c in self.slack_histogram
            ],
        }


# -- the vectorized analysis -------------------------------------------------


def analyze_critical_path(
    source: Any,
    network_seed: int = 0,
    workload_fallback: Mapping[str, Any] | None = None,
    label: str | None = None,
) -> CriticalPathResult:
    """Critical path + wait-state attribution for any run-shaped source.

    ``source`` is a :class:`~repro.analysis.columns.RehydratedRun`, a
    :class:`~repro.obs.causal.ColumnarFlowRecorder`, a
    :class:`~repro.replay.session.RunResult` with a flow attached, or a
    record — a :class:`~repro.replay.durable_store.RecordArchive`, an
    archive directory — which one :func:`~repro.analysis.columns.rehydrate`
    turns into columns, read-only.

    Publishes ``explain.critical_path_share`` / ``explain.max_slack_us``
    gauges to the active telemetry registry, when one is enabled.
    """
    if isinstance(source, RehydratedRun):
        run = source
    elif hasattr(source, "on_send") and hasattr(source, "on_delivery"):
        run = RehydratedRun.from_flow(source)
    elif hasattr(getattr(source, "flow", None), "on_send"):
        archive = getattr(source, "archive", None)
        run = RehydratedRun.from_flow(source.flow, int(getattr(archive, "nprocs", 0)))
    else:
        label = label or "explain"
        run = rehydrate(source, network_seed, workload_fallback)
    result = _analyze(run, label=label or run.label)
    # lazy import for the same core->obs->core reason as the recorders.
    from repro.obs.registry import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.gauge("explain.critical_path_share").set(
            result.critical_path_share
        )
        registry.gauge("explain.max_slack_us").set(result.max_slack_us)
    return result


def _analyze(run: RehydratedRun, label: str) -> CriticalPathResult:
    send_src, send_clock, send_t = run.send_src, run.send_clock, run.send_t
    recv_rank, recv_cs, recv_t = run.recv_rank, run.recv_cs, run.recv_t
    recv_sender, recv_clock = run.recv_sender, run.recv_clock
    callsites, kinds = run.callsites, run.kinds

    n_s = send_src.shape[0]
    n_r = recv_rank.shape[0]
    n = n_s + n_r
    hi = 0
    for a in (send_src, recv_rank, recv_sender):
        if a.shape[0]:
            hi = max(hi, int(a.max()))
    nranks = max(hi + 1, run.nprocs)
    ncs = len(callsites)
    if n == 0:
        zr = np.zeros(nranks, dtype=np.float64)
        return CriticalPathResult(
            label=label, nranks=nranks, sends=0, receives=0, matched=0,
            duration_us=0.0,
            rank_path_us=zr.copy(), rank_late_sender_us=zr.copy(),
            rank_in_flight_us=zr.copy(), rank_imbalance_us=zr.copy(),
            rank_slack_max_us=zr.copy(),
            callsites=callsites, kinds=kinds,
            callsite_receives=np.zeros(ncs, dtype=np.int64),
            callsite_late_sender_us=np.zeros(ncs),
            callsite_in_flight_us=np.zeros(ncs),
            callsite_slack_max_us=np.zeros(ncs),
        )

    # global event table: sends occupy [0, n_s), receives [n_s, n).
    ev_rank = np.concatenate([send_src, recv_rank])
    ev_t = np.concatenate([send_t, recv_t])
    is_recv = np.concatenate(
        [np.zeros(n_s, dtype=np.int8), np.ones(n_r, dtype=np.int8)]
    )
    seq = np.concatenate(
        [np.arange(n_s, dtype=np.int64), np.arange(n_r, dtype=np.int64)]
    )

    # per-rank program order: rank, then time, sends before receives on
    # ties, then capture order (stable).
    order = np.lexsort((seq, is_recv, ev_t, ev_rank))
    ranks_o = ev_rank[order]
    prev_o = np.empty(n, dtype=np.int64)
    prev_o[0] = -1
    if n > 1:
        prev_o[1:] = np.where(ranks_o[1:] == ranks_o[:-1], order[:-1], -1)
    prev_idx = np.empty(n, dtype=np.int64)
    prev_idx[order] = prev_o
    has_prev = prev_idx >= 0
    # a rank's first event has no local wait: prev time = its own time.
    prev_t = np.where(has_prev, ev_t[np.maximum(prev_idx, 0)], ev_t)

    # receive -> send join on the paper's (clock, sender) identity, as one
    # combined integer key. First duplicate wins (FIFO: the first post
    # under an identity is the real message) via stable argsort +
    # searchsorted-left.
    k = np.int64(nranks + 1)
    matched = np.zeros(n_r, dtype=bool)
    send_of = np.full(n_r, -1, dtype=np.int64)
    if n_s and n_r:
        send_key = send_clock * k + send_src
        recv_key = recv_clock * k + recv_sender
        sidx = np.argsort(send_key, kind="stable")
        sk = send_key[sidx]
        pos = np.searchsorted(sk, recv_key, side="left")
        ok = pos < n_s
        pos_c = np.minimum(pos, n_s - 1)
        matched = ok & (sk[pos_c] == recv_key)
        send_of = np.where(matched, sidx[pos_c], -1)

    # wait-state decomposition per matched receive (clipped at 0: per-rank
    # virtual clocks are not globally synchronized).
    prev_r = prev_t[n_s:]
    if n_s:
        ts = np.where(matched, send_t[np.maximum(send_of, 0)], recv_t)
    else:
        ts = recv_t.copy()  # nothing matched; keep the shapes aligned
    late = np.where(
        matched, np.clip(np.minimum(ts, recv_t) - prev_r, 0.0, None), 0.0
    )
    infl = np.where(
        matched, np.clip(recv_t - np.maximum(ts, prev_r), 0.0, None), 0.0
    )
    slack = np.where(matched, np.abs(ts - prev_r), 0.0)

    # binding predecessor: the matched send when it posted at-or-after the
    # receiver was ready (the message gated progress), else local order.
    pred = prev_idx.copy()
    remote = matched & (ts >= prev_r)
    pred_recv = pred[n_s:]
    pred_recv[remote] = send_of[remote]
    pred[n_s:] = pred_recv

    # per-rank aggregation (bincount / maximum.at — no Python loops).
    us = 1e6
    late_by_rank = np.bincount(recv_rank, weights=late, minlength=nranks) * us
    infl_by_rank = np.bincount(recv_rank, weights=infl, minlength=nranks) * us
    slack_by_rank = np.zeros(nranks, dtype=np.float64)
    np.maximum.at(slack_by_rank, recv_rank, slack)
    slack_by_rank *= us
    t_end = float(ev_t.max())
    t_start = float(ev_t.min())
    last_t = np.full(nranks, -np.inf)
    np.maximum.at(last_t, ev_rank, ev_t)
    imb = np.where(np.isinf(last_t), 0.0, (t_end - last_t)) * us

    recv_counts = np.bincount(recv_cs, minlength=ncs) if n_r else np.zeros(
        ncs, dtype=np.int64
    )
    late_by_cs = np.bincount(recv_cs, weights=late, minlength=ncs) * us
    infl_by_cs = np.bincount(recv_cs, weights=infl, minlength=ncs) * us
    slack_by_cs = np.zeros(ncs, dtype=np.float64)
    if n_r:
        np.maximum.at(slack_by_cs, recv_cs, slack)
    slack_by_cs *= us

    # critical path: pointer-chase from the globally last event over the
    # precomputed binding-predecessor array. O(path length) Python steps —
    # the only scalar loop in the analysis.
    start = int(np.argmax(ev_t))
    nodes = [start]
    i = start
    for _ in range(n):  # bounded: a genuine run's pred graph is acyclic
        p = int(pred[i])
        if p < 0:
            break
        nodes.append(p)
        i = p
    nodes.reverse()
    path: list[dict[str, Any]] = []
    rank_path = np.zeros(nranks, dtype=np.float64)
    for a, b in zip(nodes[:-1], nodes[1:]):
        t0 = float(ev_t[a]) * us
        t1 = float(ev_t[b]) * us
        if t1 < t0:
            t1 = t0  # clock skew: clip, never negative
        rank_b = int(ev_rank[b])
        edge: dict[str, Any] = {
            "rank": rank_b,
            "t0_us": round(t0, 3),
            "t1_us": round(t1, 3),
        }
        if b >= n_s and a == send_of[b - n_s] and a != prev_idx[b]:
            edge["kind"] = "in_flight"
            edge["from_rank"] = int(ev_rank[a])
        else:
            edge["kind"] = "local"
        if b >= n_s:
            edge["callsite"] = callsites[int(recv_cs[b - n_s])]
        path.append(edge)
        rank_path[rank_b] += t1 - t0

    # slack histogram over matched receives (µs, linear bins).
    hist: list[tuple[float, int]] = []
    matched_slack = slack[matched] * us
    if matched_slack.shape[0]:
        top = float(matched_slack.max()) or 1.0
        counts, edges = np.histogram(matched_slack, bins=SLACK_BINS, range=(0.0, top))
        hist = [
            (round(float(edges[j + 1]), 3), int(counts[j]))
            for j in range(SLACK_BINS)
        ]

    return CriticalPathResult(
        label=label,
        nranks=nranks,
        sends=n_s,
        receives=n_r,
        matched=int(matched.sum()),
        duration_us=round((t_end - t_start) * us, 3),
        rank_path_us=rank_path,
        rank_late_sender_us=late_by_rank,
        rank_in_flight_us=infl_by_rank,
        rank_imbalance_us=imb,
        rank_slack_max_us=slack_by_rank,
        callsites=callsites,
        kinds=kinds,
        callsite_receives=recv_counts,
        callsite_late_sender_us=late_by_cs,
        callsite_in_flight_us=infl_by_cs,
        callsite_slack_max_us=slack_by_cs,
        path=path,
        slack_histogram=hist,
    )


# -- JSON export / validation ------------------------------------------------


def write_explain_json(result: CriticalPathResult, path: str) -> dict[str, Any]:
    return write_json(result.to_json(), path)


def validate_explain_json(obj: Any) -> list[str]:
    """Schema check of a ``repro explain --json`` export; returns problems."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["explain report must be a JSON object"]
    if obj.get("format") != EXPLAIN_FORMAT:
        problems.append(f"format must be {EXPLAIN_FORMAT!r}")
    if obj.get("version") != EXPLAIN_VERSION:
        problems.append(f"version must be {EXPLAIN_VERSION}")
    for key, kind in (
        ("label", str),
        ("nprocs", int),
        ("sends", int),
        ("receives", int),
        ("matched", int),
        ("match_rate", (int, float)),
        ("duration_us", (int, float)),
        ("path_edges", int),
        ("path_duration_us", (int, float)),
        ("critical_path_share", (int, float)),
        ("top_path_rank", int),
        ("max_slack_us", (int, float)),
        ("ranks", list),
        ("callsites", list),
        ("slack_histogram", list),
    ):
        if not isinstance(obj.get(key), kind):
            name = kind.__name__ if isinstance(kind, type) else "number"
            problems.append(f"{key} must be {name}")
    if problems:
        return problems
    share = obj["critical_path_share"]
    if not 0.0 <= share <= 1.0:
        problems.append(f"critical_path_share {share} outside [0, 1]")
    if not 0.0 <= obj["match_rate"] <= 1.0:
        problems.append(f"match_rate {obj['match_rate']} outside [0, 1]")
    if obj["matched"] > obj["receives"]:
        problems.append("matched exceeds receives")
    for i, entry in enumerate(obj["ranks"]):
        for key in (
            "rank", "path_us", "path_share", "late_sender_us",
            "in_flight_us", "imbalance_us", "slack_max_us",
        ):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"ranks[{i}] missing numeric {key!r}")
    shares = [
        e["path_share"] for e in obj["ranks"]
        if isinstance(e.get("path_share"), (int, float))
    ]
    if shares and not 0.0 <= sum(shares) <= 1.0 + 1e-6:
        problems.append("rank path shares do not sum within [0, 1]")
    for i, entry in enumerate(obj["callsites"]):
        for key in ("callsite", "kind"):
            if not isinstance(entry.get(key), str):
                problems.append(f"callsites[{i}] missing {key!r}")
        for key in ("receives", "late_sender_us", "in_flight_us", "slack_max_us"):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"callsites[{i}] missing numeric {key!r}")
    for i, entry in enumerate(obj["slack_histogram"]):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("edge_us"), (int, float)
        ) or not isinstance(entry.get("count"), int):
            problems.append(f"slack_histogram[{i}] must be {{edge_us, count}}")
    return problems
