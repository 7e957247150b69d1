"""Persistent run ledger: every record/replay run as one JSONL line.

Cross-run observability: sessions append a
compact summary line (workload, seed, ranks, chunk count, storage stages,
permutation rate, health flags, wall time) to an append-only JSONL file.
Writes follow the same crash-safe whole-line-flush discipline as
:class:`~repro.obs.monitor.MetricsStreamWriter`: a line is built fully,
written in one call, and flushed — a crash mid-run leaves a valid ledger
whose every line parses (the reader additionally tolerates a torn final
line, so even a crash *inside* the single append cannot poison history).

``repro runs list/show/trend`` renders the history;
:func:`trend_report` flags bytes-per-event and critical-path regressions
with the same Welford z-score machinery live monitoring uses
(:class:`~repro.obs.monitor.RunningStats`), grouped per
``(workload, mode, nprocs)`` so unlike runs never share a baseline.
``repro diff`` resolves ledger run IDs to archive paths, so two
historical runs can be diffed by name.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.monitor import RunningStats, sparkline

__all__ = [
    "LedgerEntry",
    "RunLedger",
    "TrendFlag",
    "entry_from_result",
    "render_run",
    "render_runs",
    "render_trend",
    "trend_report",
    "validate_ledger_lines",
]

LEDGER_FORMAT = "cdc-ledger"
LEDGER_VERSION = 1

#: |z| beyond which a run's metric is flagged against its group history.
TREND_Z = 3.0

#: prior runs required before a z-score is meaningful.
TREND_MIN_RUNS = 4

#: metric name -> (entry attribute, direction that is a regression).
#: Only functions of the record and the program, which read the same on
#: any machine, so a flag measures the code. Wall time is not gated: a
#: run's events/s moves with whatever else the machine runs, and
#: ``bench/run.py``'s paired runs are the wall-clock ruler.
TREND_METRICS: dict[str, tuple[str, str]] = {
    "bytes_per_event": ("bytes_per_event", "high"),
    # explain metrics, in virtual time: only present on ``mode="explain"``
    # entries (None elsewhere — trend_report skips missing values, so
    # record/replay entries never pollute the explain baselines).
    "critical_path_share": ("critical_path_share", "high"),
    "max_slack_us": ("max_slack_us", "high"),
}


@dataclass(frozen=True)
class LedgerEntry:
    """One run's summary line. Plain data; JSON round-trips losslessly."""

    run_id: str
    mode: str
    workload: str
    nprocs: int
    network_seed: int | None
    #: matched receive events the run produced or delivered.
    events: int
    chunks: int
    #: storage stages: raw Figure 4 quintuples -> CDC tables -> gzip.
    raw_bytes: int
    cdc_bytes: int
    stored_bytes: int
    #: moved events / matched events across the archive, each chunk against
    #: its own reference order: Figure 14's for paper-exact chunks, within-
    #: sender moves (0 over FIFO channels) for assist chunks (DESIGN.md §5.9).
    permutation_pct: float
    wall_seconds: float
    #: archive directory, when the run recorded (or replayed) one on disk.
    archive: str | None = None
    #: critical-path concentration from ``repro explain --ledger``
    #: (largest single-rank share of critical-path time); None for
    #: ordinary record/replay entries.
    critical_path_share: float | None = None
    #: largest binding-decision slack the explain pass saw, in virtual µs.
    max_slack_us: float | None = None
    #: RunStats health flags: truncated telemetry, stalls, salvage, …
    health: Mapping[str, Any] = field(default_factory=dict)
    #: unix timestamp of the append (0.0 when unknown).
    time: float = 0.0

    @property
    def bytes_per_event(self) -> float:
        return self.stored_bytes / self.events if self.events else 0.0

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def compression_rate(self) -> float:
        """Raw quintuple bytes over stored bytes (the paper's headline rate)."""
        return self.raw_bytes / self.stored_bytes if self.stored_bytes else 0.0

    @property
    def healthy(self) -> bool:
        return not any(self.health.values())

    def to_json(self) -> dict[str, Any]:
        obj = asdict(self)
        obj["format"] = LEDGER_FORMAT
        obj["version"] = LEDGER_VERSION
        obj["health"] = dict(self.health)
        return obj

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "LedgerEntry":
        return cls(
            run_id=str(obj["run_id"]),
            mode=str(obj["mode"]),
            workload=str(obj["workload"]),
            nprocs=int(obj["nprocs"]),
            network_seed=(
                None if obj.get("network_seed") is None else int(obj["network_seed"])
            ),
            events=int(obj["events"]),
            chunks=int(obj["chunks"]),
            raw_bytes=int(obj["raw_bytes"]),
            cdc_bytes=int(obj["cdc_bytes"]),
            stored_bytes=int(obj["stored_bytes"]),
            permutation_pct=float(obj["permutation_pct"]),
            wall_seconds=float(obj["wall_seconds"]),
            archive=(None if obj.get("archive") is None else str(obj["archive"])),
            critical_path_share=(
                None
                if obj.get("critical_path_share") is None
                else float(obj["critical_path_share"])
            ),
            max_slack_us=(
                None
                if obj.get("max_slack_us") is None
                else float(obj["max_slack_us"])
            ),
            health=dict(obj.get("health", {})),
            time=float(obj.get("time", 0.0)),
        )


class RunLedger:
    """Append-only JSONL run history.

    The file needs no locking discipline beyond whole-line appends:
    concurrent writers interleave at line granularity (POSIX O_APPEND),
    and the reader skips anything that does not parse — at worst the torn
    final line of a crashed writer.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing -------------------------------------------------------------

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Append one run line; assigns a sequential run id if empty.

        The line is serialized fully before the file is touched and
        written with a single ``write`` + ``flush``, so a crash can tear
        at most the line being appended, never an earlier one.
        """
        if not entry.run_id:
            entry = LedgerEntry(**{**asdict(entry), "run_id": self.next_run_id()})
        line = json.dumps(entry.to_json(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
        return entry

    def next_run_id(self) -> str:
        return f"r{len(self.entries()) + 1:04d}"

    # -- reading -------------------------------------------------------------

    def entries(self) -> list[LedgerEntry]:
        """Every parseable run line, in append order; missing file = []."""
        out: list[LedgerEntry] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return out
        for line in lines:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if obj.get("format") != LEDGER_FORMAT:
                    continue
                out.append(LedgerEntry.from_json(obj))
            except (ValueError, KeyError, TypeError):
                continue  # torn tail of a crashed writer
        return out

    def find(self, run_id: str) -> LedgerEntry:
        for entry in self.entries():
            if entry.run_id == run_id:
                return entry
        raise KeyError(f"run id {run_id!r} not in ledger {self.path}")


def validate_ledger_lines(lines: Iterable[str]) -> list[str]:
    """Schema check of raw ledger lines; returns human-readable problems."""
    problems: list[str] = []
    seen_ids: set[str] = set()
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {i}: bad JSON ({exc})")
            continue
        if obj.get("format") != LEDGER_FORMAT:
            problems.append(f"line {i}: format must be {LEDGER_FORMAT!r}")
            continue
        if obj.get("version") != LEDGER_VERSION:
            problems.append(f"line {i}: unsupported version {obj.get('version')}")
        for key, kind in (
            ("run_id", str),
            ("mode", str),
            ("workload", str),
            ("nprocs", int),
            ("events", int),
            ("chunks", int),
            ("raw_bytes", int),
            ("cdc_bytes", int),
            ("stored_bytes", int),
            ("wall_seconds", (int, float)),
            ("permutation_pct", (int, float)),
            ("health", dict),
        ):
            if not isinstance(obj.get(key), kind):
                name = kind.__name__ if isinstance(kind, type) else "number"
                problems.append(f"line {i}: {key} must be {name}")
        for key in ("critical_path_share", "max_slack_us"):
            value = obj.get(key)
            if value is not None and not isinstance(value, (int, float)):
                problems.append(f"line {i}: {key} must be a number or null")
        share = obj.get("critical_path_share")
        if isinstance(share, (int, float)) and not 0.0 <= share <= 1.0:
            problems.append(f"line {i}: critical_path_share outside [0, 1]")
        run_id = obj.get("run_id")
        if isinstance(run_id, str):
            if run_id in seen_ids:
                problems.append(f"line {i}: duplicate run_id {run_id!r}")
            seen_ids.add(run_id)
    return problems


# ---------------------------------------------------------------------------
# building entries from run results
# ---------------------------------------------------------------------------


def entry_from_result(
    result: Any,
    wall_seconds: float,
    archive_path: str | None = None,
    run_id: str = "",
    clock=time.time,
) -> LedgerEntry:
    """Summarize a session :class:`~repro.replay.session.RunResult`.

    Storage stages and the permutation rate come from the attached
    archive when one exists (replay runs reuse the archive they replayed);
    health flags fold in telemetry truncation, salvage/stall degradation,
    and archive recovery state.
    """
    archive = getattr(result, "archive", None)
    chunks = moved = events_in_chunks = 0
    raw_bytes = cdc_bytes = stored_bytes = 0
    unmatched = 0
    if archive is not None:
        # lazy: core.formats sits under core.pipeline's import tree, which
        # imports repro.obs — a module-level import here would be circular.
        from repro.core.formats import ROW_BITS

        for rank in range(archive.nprocs):
            for chunk in archive.chunks(rank):
                chunks += 1
                events_in_chunks += chunk.num_events
                moved += chunk.diff.num_moved
                # map/itemgetter: no Python frame per run, so the summary
                # costs the same calls however long the run was
                unmatched += sum(map(itemgetter(1), chunk.unmatched_runs))
        raw_bytes = ((events_in_chunks + unmatched) * ROW_BITS + 7) // 8
        # both sizes come from the archive's memoized one-pass accounting;
        # a per-table breakdown (analysis.size_model) costs too much here.
        cdc_bytes = archive.total_payload_bytes()
        stored_bytes = archive.total_bytes()
    meta = dict(getattr(archive, "meta", {}) or {})
    run_stats = getattr(result, "run_stats", None)
    health: dict[str, Any] = {}
    if run_stats is not None and run_stats.truncated_telemetry:
        health["truncated_telemetry"] = True
    if getattr(result, "truncated_at", None) is not None:
        health["truncated_at"] = list(result.truncated_at)
    if getattr(result, "stall", None) is not None:
        health["stalled"] = True
    recovery = getattr(result, "recovery", None)
    if recovery is not None and not recovery.clean:
        health["salvaged_archive"] = True
    mode = getattr(result, "mode", "?")
    network_seed = meta.get("network_seed")
    return LedgerEntry(
        run_id=run_id,
        mode=mode,
        workload=str(meta.get("workload", "?")),
        nprocs=int(getattr(result, "nprocs", 0)),
        network_seed=None if network_seed is None else int(network_seed),
        events=int(result.total_receive_events()),
        chunks=chunks,
        raw_bytes=raw_bytes,
        cdc_bytes=cdc_bytes,
        stored_bytes=stored_bytes,
        permutation_pct=(moved / events_in_chunks) if events_in_chunks else 0.0,
        wall_seconds=wall_seconds,
        archive=archive_path,
        health=health,
        time=clock(),
    )


# ---------------------------------------------------------------------------
# trend analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendFlag:
    """One run whose metric sits outside its group's running band."""

    run_id: str
    group: tuple[str, str, int]  # (workload, mode, nprocs)
    metric: str
    value: float
    baseline_mean: float
    zscore: float

    def describe(self) -> str:
        workload, mode, nprocs = self.group
        return (
            f"{self.run_id} [{workload}/{mode}@{nprocs}]: {self.metric} "
            f"{self.value:.3f} vs mean {self.baseline_mean:.3f} "
            f"(z={self.zscore:+.1f})"
        )


def trend_report(
    entries: Sequence[LedgerEntry],
    z_threshold: float = TREND_Z,
    min_runs: int = TREND_MIN_RUNS,
) -> tuple[list[TrendFlag], dict[tuple[str, str, int], dict[str, list[float]]]]:
    """Regression flags + per-group metric series over ledger history.

    Walks entries in append order per ``(workload, mode, nprocs)`` group;
    each run is z-scored against the runs *before* it (Welford), so one
    bad run flags itself without poisoning its own baseline. Only the
    regression direction flags: compression getting *better* or a
    critical path getting *shorter* is not an anomaly.
    """
    flags: list[TrendFlag] = []
    series: dict[tuple[str, str, int], dict[str, list[float]]] = {}
    stats: dict[tuple, RunningStats] = {}
    for entry in entries:
        group = (entry.workload, entry.mode, entry.nprocs)
        for metric, (attr, bad_direction) in TREND_METRICS.items():
            raw = getattr(entry, attr)
            if raw is None:
                continue  # metric absent for this entry kind (e.g. explain-only)
            value = float(raw)
            series.setdefault(group, {}).setdefault(metric, []).append(value)
            baseline = stats.setdefault((group, metric), RunningStats())
            if baseline.count >= min_runs:
                z = baseline.zscore(value)
                regressed = z > z_threshold if bad_direction == "high" else (
                    z < -z_threshold
                )
                if regressed:
                    flags.append(
                        TrendFlag(
                            run_id=entry.run_id,
                            group=group,
                            metric=metric,
                            value=value,
                            baseline_mean=baseline.mean,
                            zscore=z,
                        )
                    )
            baseline.push(value)
    return flags, series


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_runs(entries: Sequence[LedgerEntry], limit: int = 20) -> str:
    from repro.analysis.report import human_bytes, render_table

    shown = list(entries)[-limit:]
    rows = [
        (
            e.run_id,
            e.mode,
            e.workload,
            e.nprocs,
            "-" if e.network_seed is None else e.network_seed,
            f"{e.events:,}",
            human_bytes(e.stored_bytes),
            f"{e.bytes_per_event:.3f}",
            f"{100 * e.permutation_pct:.1f}%",
            f"{e.wall_seconds:.3f}",
            "ok" if e.healthy else "⚠ " + ",".join(sorted(e.health)),
        )
        for e in shown
    ]
    note = None
    if len(entries) > limit:
        note = f"{len(entries) - limit} earlier run(s) not shown"
    return render_table(
        f"run ledger ({len(entries)} run(s))",
        [
            "run", "mode", "workload", "ranks", "seed", "events",
            "stored", "B/event", "perm", "wall s", "health",
        ],
        rows,
        note=note,
    )


def render_run(entry: LedgerEntry) -> str:
    from repro.analysis.report import human_bytes, render_table

    rows = [
        ("mode", entry.mode),
        ("workload", entry.workload),
        ("ranks", entry.nprocs),
        ("network seed", "-" if entry.network_seed is None else entry.network_seed),
        ("receive events", f"{entry.events:,}"),
        ("CDC chunks", f"{entry.chunks:,}"),
        ("raw quintuples", human_bytes(entry.raw_bytes)),
        ("CDC tables (pre-gzip)", human_bytes(entry.cdc_bytes)),
        ("stored (gzip)", human_bytes(entry.stored_bytes)),
        ("bytes/event", f"{entry.bytes_per_event:.3f}"),
        ("compression rate", f"{entry.compression_rate:.1f}x"),
        ("permutation", f"{100 * entry.permutation_pct:.1f}%"),
        ("wall time", f"{entry.wall_seconds:.3f} s"),
        ("events/s", f"{entry.events_per_second:,.0f}"),
        ("archive", entry.archive or "-"),
        (
            "health",
            "ok"
            if entry.healthy
            else "⚠ " + ", ".join(f"{k}={v}" for k, v in sorted(entry.health.items())),
        ),
    ]
    return render_table(f"run {entry.run_id}", ["property", "value"], rows)


def render_trend(
    entries: Sequence[LedgerEntry],
    z_threshold: float = TREND_Z,
    min_runs: int = TREND_MIN_RUNS,
    sparkline_width: int | None = None,
) -> str:
    """Terminal trend report; ``sparkline_width`` switches to wide charts.

    The default one-liner-per-metric form keeps ``repro runs trend``
    scannable; ``--sparkline`` (a width, e.g. 60) renders each metric as
    a full-width sparkline annotated with its min/max band.
    """
    flags, series = trend_report(entries, z_threshold, min_runs)
    title = f"run trends over {len(entries)} ledgered run(s)"
    lines = [title, "=" * len(title)]
    if not entries:
        lines.append("ledger is empty")
        return "\n".join(lines)
    for group in sorted(series):
        workload, mode, nprocs = group
        lines.append(f"{workload}/{mode} @ {nprocs} ranks:")
        for metric in TREND_METRICS:
            values = series[group].get(metric, [])
            if not values:
                continue
            if sparkline_width:
                chart = sparkline(values, width=sparkline_width)
                lines.append(f"  {metric} (n={len(values)}):")
                lines.append(f"    {chart}")
                lines.append(
                    f"    min {min(values):.3f}  max {max(values):.3f}  "
                    f"latest {values[-1]:.3f}"
                )
            else:
                lines.append(
                    f"  {metric}: {sparkline(values)} "
                    f"latest {values[-1]:.3f} (n={len(values)})"
                )
    if flags:
        lines.append(f"regressions (|z| > {z_threshold:g}):")
        for flag in flags:
            lines.append(f"  ⚠ {flag.describe()}")
    else:
        lines.append(
            f"no regressions (z threshold {z_threshold:g}, "
            f"baseline after {min_runs} runs per group)"
        )
    return "\n".join(lines)
