"""Command-line interface: record, replay, inspect, compare.

::

    python -m repro record   --workload mcb --nprocs 16 --network-seed 1 \
                             --out /tmp/rec -p particles_per_rank=100
    python -m repro replay   --record /tmp/rec --network-seed 7
    python -m repro inspect  --record /tmp/rec
    python -m repro compare  --workload mcb --nprocs 16 --network-seed 1

The record directory is self-describing (workload name and parameters ride
in the manifest), so ``replay`` needs nothing but the directory and a new
network seed — the tool-flow of the paper's Figure 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Sequence

from repro.analysis import human_bytes, render_table
from repro.core import ALL_METHODS, aggregate_reports, compare_methods
from repro.errors import RecordFormatError
from repro.replay.durable_store import StoredRun, open_run, save_archive, summarize
from repro.replay.session import (
    RecordSession,
    ReplaySession,
    assert_replay_matches,
)
from repro.workloads import REGISTRY, make_workload


def _parse_params(pairs: Sequence[str]) -> dict[str, str]:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad -p/--param {pair!r}; expected key=value")
        key, value = pair.split("=", 1)
        params[key] = value
    return params


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=sorted(REGISTRY), default="mcb",
        help="registered workload to run",
    )
    parser.add_argument("--nprocs", type=int, default=16, help="rank count")
    parser.add_argument(
        "--network-seed", type=int, default=1,
        help="seed of the network-noise RNG (the source of non-determinism)",
    )
    parser.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload config override (repeatable)",
    )


def _record(args: argparse.Namespace, program, **kw):
    """``program`` recorded at ``--nprocs`` ranks under ``--network-seed``."""
    return RecordSession(program, nprocs=args.nprocs, network_seed=args.network_seed, **kw).run()


def _replay(args: argparse.Namespace, program, archive, **kw):
    """``archive`` replayed under the network seed after ``--network-seed``."""
    return ReplaySession(program, archive, network_seed=args.network_seed + 1, **kw).run()


def cmd_record(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    program, config = make_workload(args.workload, args.nprocs, **params)
    # the archive streams to disk as durable CRC'd frames while the run is
    # in flight; the manifest commits only when recording finishes cleanly.
    result = _record(
        args,
        program,
        chunk_events=args.chunk_events,
        replay_assist=not args.no_assist,
        store_dir=args.out,
        meta={
            "workload": args.workload,
            "nprocs": args.nprocs,
            "network_seed": args.network_seed,
            "params": params,
        },
        ledger=args.ledger,
        run_id=args.run_id,
    )
    archive = result.archive
    if args.trace_out:
        from repro.core.trace_io import save_trace

        lines = save_trace(result.outcomes, args.trace_out)
        print(f"trace: {args.trace_out} ({lines:,} outcome lines)")
    events = archive.total_events()
    size = archive.total_bytes()
    print(f"recorded {events:,} receive events from {args.nprocs} ranks")
    print(f"archive: {args.out} ({human_bytes(size)}, "
          f"{size / max(1, events):.3f} bytes/event)")
    print(f"virtual time: {result.stats.virtual_time:.6f} s")
    if result.ledger_entry is not None:
        print(f"ledger: {args.ledger} run {result.ledger_entry.run_id}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    run = open_run(args.record, salvage=args.salvage)
    if not run.recovery.clean:
        print(run.recovery.render())
    try:
        program = run.program()
    except ValueError as exc:
        raise SystemExit(str(exc))
    result = ReplaySession(
        program,
        run,
        network_seed=args.network_seed,
        mode=run.mode,
        telemetry=True if args.verbose else None,
        ledger=args.ledger,
        run_id=args.run_id,
    ).run()
    print(
        f"replayed {result.total_receive_events():,} receive events on "
        f"{run.archive.nprocs} ranks under network seed {args.network_seed}"
    )
    if result.ledger_entry is not None:
        print(f"ledger: {args.ledger} run {result.ledger_entry.run_id}")
    if args.verbose and result.run_stats is not None:
        print()
        print(result.run_stats.render())
    if result.truncated_at is not None:
        rank, callsite = result.truncated_at
        delivered = result.controller.delivered_summary()
        got, total = delivered.get((rank, callsite), (0, 0))
        print(
            f"record ends early: rank {rank} callsite {callsite!r} after "
            f"{got}/{total} recovered events (salvaged prefix replayed)"
        )
        return 0
    if args.verify:
        reference = RecordSession(
            program,
            nprocs=int(run.meta["nprocs"]),
            network_seed=int(run.meta["network_seed"]),
        ).run()
        assert_replay_matches(reference, result)
        print("verified: outcome streams, clocks and results match the record ✓")
    for rank in sorted(result.app_results)[: args.show_results]:
        print(f"  rank {rank}: {result.app_results[rank]!r}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Integrity-check an archive: frame CRCs, tails, manifest counts."""
    try:
        run = open_run(args.record, salvage=True)
    except Exception as exc:  # unreadable manifest, not an archive, ...
        print(f"verify failed: {exc}")
        return 1
    archive, report = run.archive, run.recovery
    print(report.render())
    if not report.clean:
        return 1
    print(
        f"  {archive.total_events():,} receive events across "
        f"{archive.nprocs} ranks — archive OK"
    )
    return 0


def cmd_salvage(args: argparse.Namespace) -> int:
    """Recover the longest valid chunk prefix of every rank."""
    run = open_run(args.record, salvage=True)
    archive, report = run.archive, run.recovery
    print(report.render())
    if args.out:
        save_archive(archive, args.out)
        kept = sum(len(archive.chunks(r)) for r in range(archive.nprocs))
        print(
            f"salvaged archive written to {args.out} "
            f"({kept} chunk(s), {report.total_bytes_dropped()} B dropped)"
        )
    return 0 if report.clean else 2


def _open_or_exit(source: str, ledger: str | None = None, salvage=None) -> StoredRun:
    """:func:`open_run` for ``inspect``/``stats`` (strict unless ``--salvage``)
    and ``diff``/``explain`` (a directory or, with ``--ledger``, a run id):
    a source that cannot be opened exits with the reason and what to try."""
    try:
        return open_run(source, ledger=ledger, salvage=salvage)
    except (LookupError, RecordFormatError, OSError) as exc:
        hint = ""
        if salvage is False:
            hint = ("\n(crash-truncated or corrupt archive? retry with "
                    "--salvage to report on the recoverable prefix)")
        elif salvage is None and ledger is None:
            hint = " (pass --ledger FILE to use run ids)"
        raise SystemExit(f"cannot open {source!r}: {exc}{hint}")


def _print_chunk_table(archive, ranks: int) -> None:
    from repro.analysis.inspector import iter_chunk_stats

    print()
    print(
        render_table(
            f"per-chunk breakdown (first {ranks} ranks)",
            ["rank", "callsite", "chunk", "events", "permuted", "unmatched"],
            [
                (
                    s.rank,
                    s.callsite,
                    s.index,
                    s.events,
                    f"{100 * s.permutation_percentage:.1f}%",
                    s.unmatched_tests,
                )
                for s in iter_chunk_stats(archive)
                if s.rank < ranks
            ],
        )
    )


def _report_archive(args: argparse.Namespace):
    """The archive ``inspect``/``stats`` report on, any losses printed first."""
    run = _open_or_exit(args.record, salvage=args.salvage)
    if not run.recovery.clean:
        print(run.recovery.render())
        print()
    return run.archive


def cmd_inspect(args: argparse.Namespace) -> int:
    archive = _report_archive(args)
    info = summarize(archive)
    print(
        render_table(
            f"record archive {args.record}",
            ["property", "value"],
            [
                ("ranks", info["nprocs"]),
                ("receive events", info["total_events"]),
                ("stored bytes", human_bytes(info["total_bytes"])),
                ("bytes/event", f"{info['bytes_per_event']:.3f}"),
                ("callsites", ", ".join(info["callsites"])),
                ("workload", archive.meta.get("workload", "?")),
            ],
        )
    )
    from repro.analysis.inspector import profile_callsites

    profiles = profile_callsites(archive)
    print()
    print(
        render_table(
            "callsite profiles (all ranks)",
            ["callsite", "ranks", "chunks", "events", "permuted", "polls/recv"],
            [
                (
                    p.callsite,
                    p.ranks,
                    p.chunks,
                    p.events,
                    f"{100 * p.permutation_percentage:.1f}%",
                    f"{p.polling_ratio:.2f}",
                )
                for p in profiles
            ],
        )
    )
    _print_chunk_table(archive, args.ranks)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Storage statistics of an archive: sizes, stages, permutation rates."""
    from repro.analysis.inspector import profile_callsites
    from repro.analysis.size_model import archive_breakdown
    from repro.core.formats import ROW_BITS

    archive = _report_archive(args)
    per_rank = []
    total_events = total_unmatched = 0
    for rank in range(archive.nprocs):
        chunks = archive.chunks(rank)
        events = sum(c.num_events for c in chunks)
        unmatched = sum(n for c in chunks for _, n in c.unmatched_runs)
        total_events += events
        total_unmatched += unmatched
        per_rank.append(
            (
                rank,
                len(chunks),
                events,
                unmatched,
                human_bytes(archive.rank_bytes(rank)),
            )
        )
    print(
        render_table(
            f"per-rank storage for {args.record}",
            ["rank", "chunks", "events", "unmatched", "stored"],
            per_rank[: args.ranks]
            + ([("…", "", "", "", "")] if archive.nprocs > args.ranks else []),
        )
    )

    # per-stage sizes: raw quintuples -> CDC tables (pre-gzip) -> gzip
    rows = total_events + total_unmatched
    raw_bytes = (rows * ROW_BITS + 7) // 8
    breakdown = archive_breakdown(archive)
    pre_gzip = breakdown.total
    stored = archive.total_bytes()
    stage_rows = [
        ("raw quintuples", human_bytes(raw_bytes), "1.0x"),
        (
            "CDC tables (pre-gzip)",
            human_bytes(pre_gzip),
            f"{raw_bytes / max(1, pre_gzip):.1f}x",
        ),
        ("stored (gzip)", human_bytes(stored), f"{raw_bytes / max(1, stored):.1f}x"),
    ]
    print()
    print(
        render_table(
            f"compression stages ({rows:,} rows, {total_events:,} receives)",
            ["stage", "bytes", "rate vs raw"],
            stage_rows,
            note=f"gzip contributes {pre_gzip / max(1, stored):.2f}x "
                 f"on top of the CDC tables",
        )
    )

    per_event = breakdown.per_event()
    print()
    print(
        render_table(
            "CDC table breakdown (pre-gzip)",
            ["table", "bytes", "bytes/event"],
            [
                (name, human_bytes(getattr(breakdown, name)), f"{per_event[name]:.3f}")
                for name in (
                    "permutation",
                    "with_next",
                    "unmatched",
                    "epoch",
                    "exceptions",
                    "assist",
                    "header",
                )
            ],
        )
    )

    print()
    print(
        render_table(
            "permutation rates per callsite",
            ["callsite", "events", "permuted", "polls/recv"],
            [
                (
                    p.callsite,
                    p.events,
                    f"{100 * p.permutation_percentage:.1f}%",
                    f"{p.polling_ratio:.2f}",
                )
                for p in profile_callsites(archive)
            ],
        )
    )
    if args.chunks:
        _print_chunk_table(archive, args.ranks)
    if args.metrics:
        print()
        print(_telemetry_health(args.metrics))
    return 0


def _telemetry_health(metrics_path: str) -> str:
    """Summarize a metrics JSONL dump: drops, saturation, schema validity."""
    import json

    from repro.obs import validate_metrics_lines

    with open(metrics_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    problems = validate_metrics_lines(lines)
    dropped = 0
    saturated: list[str] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if obj.get("type") in ("meta", "end"):
            dropped = max(dropped, int(obj.get("dropped_events") or 0))
        elif obj.get("saturated"):
            saturated.append(str(obj.get("name")))
    rows = [
        ("schema", "ok" if not problems else f"{len(problems)} problem(s)"),
        (
            "dropped span events",
            f"{dropped:,} ⚠ trace is truncated" if dropped else "0",
        ),
        (
            "saturated instruments",
            ("⚠ " + ", ".join(saturated) + " (values clipped)")
            if saturated
            else "none",
        ),
    ]
    note = None
    if problems:
        note = "; ".join(problems[:3])
    return render_table(
        f"telemetry health ({metrics_path})", ["check", "status"], rows, note=note
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload with telemetry on and export the trace + metrics."""
    from repro.obs import (
        TelemetryRegistry,
        write_chrome_trace,
        write_metrics_jsonl,
    )

    params = _parse_params(args.param)
    program, _ = make_workload(args.workload, args.nprocs, **params)
    registry = TelemetryRegistry()
    record = _record(args, program, telemetry=registry)
    if args.replay:
        _replay(args, program, record.archive, telemetry=registry)
    events = write_chrome_trace(registry, args.out)
    print(f"trace: {args.out} ({events:,} trace events) — load in "
          "chrome://tracing or https://ui.perfetto.dev")
    if args.metrics_out:
        lines = write_metrics_jsonl(registry, args.metrics_out)
        print(f"metrics: {args.metrics_out} ({lines:,} lines)")
    if record.run_stats is not None:
        print()
        print(record.run_stats.render())
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Record then replay a workload, emitting one causally-linked timeline.

    Both runs attach a :class:`~repro.obs.ColumnarFlowRecorder`, so the
    output is a single Chrome ``trace_event`` JSON in which every matched
    receive has a flow arrow from the ``MPI_Isend`` that caused it — across
    ranks, and with record and replay side by side as separate process
    groups.
    """
    from repro.obs import (
        ColumnarFlowRecorder,
        TelemetryRegistry,
        validate_chrome_trace,
        write_metrics_jsonl,
        write_timeline,
    )

    params = _parse_params(args.param)
    program, _ = make_workload(args.workload, args.nprocs, **params)
    registry = TelemetryRegistry() if args.metrics_out else None
    recorders = [ColumnarFlowRecorder("record")]
    record = _record(args, program, flow=recorders[0], telemetry=registry)
    if not args.no_replay:
        recorders.append(ColumnarFlowRecorder("replay"))
        _replay(args, program, record.archive, flow=recorders[1], telemetry=registry)
    trace = write_timeline(recorders, args.out)
    unhealthy = []
    for rec in recorders:
        stats = rec.match_stats()
        print(stats.describe())
        if stats.match_rate < 1.0 or stats.duplicate_sends:
            unhealthy.append(stats)
    print(
        f"timeline: {args.out} ({len(trace['traceEvents']):,} events, "
        f"{trace['otherData']['flows']} flow arrows) — load in "
        "https://ui.perfetto.dev"
    )
    if args.metrics_out:
        lines = write_metrics_jsonl(registry, args.metrics_out)
        print(f"metrics: {args.metrics_out} ({lines:,} lines)")
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems[:10]:
            print(f"  ⚠ {problem}")
        return 1
    if args.strict and unhealthy:
        for stats in unhealthy:
            print(
                f"  ⚠ strict: {stats.label} correlated "
                f"{100 * stats.match_rate:.1f}% of receives "
                f"({stats.matched}/{stats.receives}) and repeated "
                f"{stats.duplicate_sends} send identities"
            )
        return 1
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Render run progress from a session's ``metrics_stream=`` JSONL.

    Without ``--follow`` the current state renders once; with it the file
    is tailed into one MonitorState until the stream's end line arrives
    or ``--timeout`` wall seconds pass.
    """
    from repro.obs import MonitorState, render_monitor

    state = MonitorState()
    pending = ""
    start = time.monotonic()
    with open(args.metrics, "r", encoding="utf-8") as fh:
        while True:
            *complete, pending = (pending + fh.read()).split("\n")
            state.feed_lines([ln for ln in complete if ln.strip()])
            if not args.follow or state.ended:
                break
            if args.timeout and time.monotonic() - start > args.timeout:
                print(render_monitor(state))
                print(f"monitor: gave up after {args.timeout:g}s without an end")
                return 1
            time.sleep(args.interval)
    print(render_monitor(state))
    return 1 if state.problems else 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Diff two runs: localize the first divergent match per rank.

    An operand is a JSON-lines outcome trace, an archive directory, or
    (with ``--ledger``) a run id.
    """
    from repro.analysis.divergence import (
        diff_runs,
        rehydrate_pair,
        write_divergence_json,
        write_divergence_timeline,
    )
    from repro.core.trace_io import read_trace

    sides, labels = [], []
    for spec in (args.a, args.b):
        if os.path.isfile(spec):
            sides.append(read_trace(spec))
            labels.append(spec)
        else:
            sides.append(_open_or_exit(spec, args.ledger))
            labels.append(sides[-1].label)
    # rehydrated here, once: the report and the timeline read the same columns
    a, b = rehydrate_pair(*sides)
    report = diff_runs(
        a, b, label_a=labels[0], label_b=labels[1], context=args.context
    )
    print(report.render(max_ranks=args.ranks))
    replays = len({id(run) for run in (a, b) if run.result is not None})
    how = ("nothing replayed", "replayed once", "replayed twice")[replays]
    records = "1 distinct record" if replays == 1 else f"{replays} distinct records"
    print(f"\n2 operands, {records}: {how}{' (Theorem 2)' if a is b else ''}")
    if args.out:
        write_divergence_json(report, args.out)
        print(f"\ndivergence report: {args.out}")
    if args.timeline:
        trace = write_divergence_timeline(report, a, b, args.timeline)
        print(
            f"divergence timeline: {args.timeline} "
            f"({len(trace['traceEvents']):,} events, "
            f"{trace['otherData']['flows']} flow arrows) — load in "
            "https://ui.perfetto.dev"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Critical-path & wait-state blame report for a recorded run.

    The archive (or ledger run id) is rehydrated by one deterministic
    replay with a columnar flow recorder attached — read-only, the
    archive bytes are never touched — then the causal DAG is analyzed
    with vectorized numpy passes (see :mod:`repro.analysis.critical_path`).
    """
    from repro.analysis.critical_path import (
        analyze_critical_path,
        write_explain_json,
    )
    from repro.analysis.columns import rehydrate
    from repro.obs import validate_chrome_trace, write_timeline

    run = _open_or_exit(args.source, args.ledger)
    started = time.perf_counter()
    columns = rehydrate(run, network_seed=args.network_seed)
    result = analyze_critical_path(columns)
    wall = time.perf_counter() - started
    print(result.render(top=args.top))
    print(
        f"\nanalyzed {result.sends + result.receives:,} events "
        f"across {result.nranks} ranks in {wall:.2f}s (read-only replay)"
    )
    if args.json:
        write_explain_json(result, args.json)
        print(f"explain report: {args.json}")
    if args.timeline:
        trace = write_timeline(
            [columns], args.timeline, critical_path=result.timeline_slices()
        )
        print(
            f"explain timeline: {args.timeline} "
            f"({len(trace['traceEvents']):,} events, "
            f"{trace['otherData']['critical_path_edges']} critical-path "
            "edges) — load in https://ui.perfetto.dev"
        )
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems[:10]:
                print(f"  ⚠ {problem}")
            return 1
    if args.ledger is not None:
        from repro.obs.ledger import LedgerEntry, RunLedger

        entry = RunLedger(args.ledger).append(
            LedgerEntry(
                run_id="",
                mode="explain",
                workload=str(run.meta.get("workload", "?")),
                nprocs=result.nranks,
                network_seed=args.network_seed,
                events=result.receives,
                chunks=0,
                raw_bytes=0,
                cdc_bytes=0,
                stored_bytes=0,
                permutation_pct=0.0,
                wall_seconds=wall,
                archive=run.path,
                critical_path_share=result.critical_path_share,
                max_slack_us=result.max_slack_us,
            )
        )
        print(f"ledgered as {entry.run_id} (mode=explain)")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Browse the run ledger: history, one run's detail, or trends."""
    from repro.obs.ledger import (
        RunLedger,
        render_run,
        render_runs,
        render_trend,
        trend_report,
    )

    ledger = RunLedger(args.ledger)
    entries = ledger.entries()
    if args.runs_command == "show":
        try:
            entry = ledger.find(args.run_id)
        except KeyError as exc:
            raise SystemExit(str(exc))
        print(render_run(entry))
        return 0
    if args.runs_command == "trend":
        print(
            render_trend(
                entries,
                z_threshold=args.z,
                sparkline_width=args.sparkline,
            )
        )
        flags, _ = trend_report(entries, z_threshold=args.z)
        return 1 if flags else 0
    print(render_runs(entries, limit=args.limit))
    return 0


def _print_methods(subject: str, reports: list, extra: str = "") -> int:
    """Print the Figure 13 methods table of per-rank method reports."""
    agg = aggregate_reports(reports)
    print(
        render_table(
            f"compression methods on {subject} ({agg.num_receive_events:,} events{extra})",
            ["method", "size", "bytes/event", "rate vs raw"],
            [
                (
                    m.value,
                    human_bytes(agg.sizes[m]),
                    f"{agg.bytes_per_event(m):.3f}",
                    f"{agg.compression_rate(m):.1f}x",
                )
                for m in ALL_METHODS
            ],
            note=f"CDC vs gzip: {agg.rate_vs_gzip():.2f}x",
        )
    )
    return 0


def cmd_transcode(args: argparse.Namespace) -> int:
    """Compress a portable JSON-lines trace with every Figure 13 method."""
    from repro.core.trace_io import read_trace

    outcomes = read_trace(args.trace)
    reports = [compare_methods(stream) for stream in outcomes.values() if stream]
    return _print_methods(f"trace {args.trace}", reports, f", {len(outcomes)} ranks")


def cmd_compare(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    program, _ = make_workload(args.workload, args.nprocs, **params)
    run = _record(args, program)
    reports = [compare_methods(run.outcomes[r]) for r in range(args.nprocs)]
    return _print_methods(f"{args.workload} at {args.nprocs} ranks", reports)


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a record (and optionally replay) pass; print hotspots.

    The one-command perf baseline: every optimization PR runs this before
    and after to show where the time went. Default is cProfile
    (deterministic, per-call, 2-5x overhead); ``--sample`` switches to the
    low-overhead sampling profiler (:mod:`repro.obs.profiler`), which is
    safe on runs whose timing you care about and exports flamegraph
    inputs (``--folded-out``) and speedscope files (``--speedscope-out``).
    """
    import cProfile
    import io
    import pstats

    params = _parse_params(args.param)
    program, _ = make_workload(args.workload, args.nprocs, **params)
    if args.sample:
        return _cmd_profile_sample(args, program)

    def record_pass():
        return _record(args, program, chunk_events=args.chunk_events, keep_outcomes=False)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    if args.mode == "record":
        result = profiler.runcall(record_pass)
    else:  # record outside the profiler, replay under it
        result = record_pass()
        profiler.runcall(lambda: _replay(args, program, result.archive))
    wall = time.perf_counter() - t0
    events = result.stats.total_events

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    rows = []
    width = args.top
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(),
        key=lambda kv: kv[1][3 if args.sort == "cumulative" else 2],
        reverse=True,
    )[:width]:
        filename, line, name = func
        where = name if filename == "~" else f"{os.path.basename(filename)}:{line}({name})"
        rows.append((f"{nc:,}", f"{tt:.3f}", f"{ct:.3f}", where))
    print(
        render_table(
            f"cProfile hotspots — {args.mode} of {args.workload} at "
            f"{args.nprocs} ranks ({events:,} engine events)",
            ["ncalls", "tottime (s)", "cumtime (s)", "function"],
            rows,
            note=f"sorted by {args.sort}; wall {wall:.2f}s, "
            f"{events / max(wall, 1e-9):,.0f} events/s including profiler "
            "overhead",
        )
    )
    if args.out:
        stats.dump_stats(args.out)
        print(f"profile data: {args.out} (load with pstats or snakeviz)")
    if args.raw:
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats(args.sort).print_stats(width)
        print(buf.getvalue())
    return 0


def _cmd_profile_sample(args: argparse.Namespace, program) -> int:
    """``repro profile --sample``: sampling profile of a session pass."""
    from repro.obs.profiler import SamplingProfiler

    sampler = SamplingProfiler(hz=args.hz)
    if args.mode == "record":
        result = _record(
            args, program, chunk_events=args.chunk_events, keep_outcomes=False, profile=sampler
        )
    else:  # record unprofiled, sample the replay
        recorded = _record(args, program, chunk_events=args.chunk_events)
        result = _replay(args, program, recorded.archive, profile=sampler)
    print(
        f"{args.mode} of {args.workload} at {args.nprocs} ranks "
        f"({result.stats.total_events:,} engine events)"
    )
    print(result.profile.render(args.top))
    if args.folded_out:
        result.profile.write_collapsed(args.folded_out)
        print(f"collapsed stacks: {args.folded_out} (flamegraph.pl input)")
    if args.speedscope_out:
        result.profile.write_speedscope(
            args.speedscope_out, name=f"{args.mode} {args.workload}"
        )
        print(f"speedscope profile: {args.speedscope_out} (open at speedscope.app)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Clock Delta Compression record-and-replay (SC'15 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="run a workload under CDC recording")
    _add_workload_args(p_record)
    p_record.add_argument("--out", required=True, help="archive output directory")
    p_record.add_argument("--chunk-events", type=int, default=1024)
    p_record.add_argument("--no-assist", action="store_true",
                          help="store the paper-exact format (no replay-assist column)")
    p_record.add_argument("--trace-out", metavar="FILE",
                          help="additionally export the raw outcome trace as JSON lines")
    p_record.add_argument("--ledger", metavar="FILE",
                          help="append this run's summary line to a JSONL run ledger")
    p_record.add_argument("--run-id", default="", metavar="ID",
                          help="name of this run's --ledger entry (default: the next rNNNN)")
    p_record.set_defaults(func=cmd_record)

    p_replay = sub.add_parser("replay", help="replay a recorded archive")
    p_replay.add_argument("--record", required=True, help="archive directory")
    p_replay.add_argument("--network-seed", type=int, default=2)
    p_replay.add_argument("--verify", action="store_true",
                          help="re-record under the original seed and compare outcome streams")
    p_replay.add_argument("--show-results", type=int, default=3, metavar="N")
    p_replay.add_argument("--salvage", action="store_true",
                          help="tolerate archive corruption: replay the longest recoverable "
                               "epoch-aligned prefix and report where the record ends")
    p_replay.add_argument("--verbose", action="store_true",
                          help="run with telemetry and print the run-stats rollup")
    p_replay.add_argument("--ledger", metavar="FILE",
                          help="append this run's summary line to a JSONL run ledger")
    p_replay.add_argument("--run-id", default="", metavar="ID",
                          help="name of this run's --ledger entry (default: the next rNNNN)")
    p_replay.set_defaults(func=cmd_replay)

    p_stats = sub.add_parser("stats",
                             help="storage statistics of an archive: per-rank sizes, compression "
                                  "stages, permutation rates")
    p_stats.add_argument("record", help="archive directory")
    p_stats.add_argument("--ranks", type=int, default=8, metavar="N",
                         help="show at most N ranks in per-rank tables")
    p_stats.add_argument("--chunks", action="store_true", help="include the per-chunk breakdown")
    p_stats.add_argument("--salvage", action="store_true",
                         help="load crash-truncated archives: report on the longest recoverable "
                              "epoch-aligned prefix instead of failing")
    p_stats.add_argument("--metrics", metavar="FILE",
                         help="also report telemetry health from a metrics JSONL dump "
                              "(span-buffer drops, counter/histogram saturation)")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser("trace",
                             help="run a workload with telemetry and export a Chrome trace")
    _add_workload_args(p_trace)
    p_trace.add_argument("--out", default="trace.json", metavar="FILE",
                         help="Chrome trace_event JSON output (Perfetto-loadable)")
    p_trace.add_argument("--metrics-out", metavar="FILE",
                         help="additionally dump every instrument as metrics JSONL")
    p_trace.add_argument("--replay", action="store_true",
                         help="also replay the fresh record into the same trace")
    p_trace.set_defaults(func=cmd_trace)

    p_timeline = sub.add_parser("timeline",
                                help="record + replay a workload into one causally-linked Chrome "
                                     "trace with cross-rank flow arrows")
    _add_workload_args(p_timeline)
    p_timeline.add_argument("--out", default="timeline.json", metavar="FILE",
                            help="merged timeline output (Perfetto-loadable trace_event JSON)")
    p_timeline.add_argument("--no-replay", action="store_true",
                            help="trace only the recording run (skip the replay process group)")
    p_timeline.add_argument("--metrics-out", metavar="FILE",
                            help="additionally dump run telemetry as metrics JSONL")
    p_timeline.add_argument("--strict", action="store_true",
                            help="exit nonzero when any run correlates < 100%% of its receives or "
                                 "repeats a send identity (FlowMatchStats.match_rate < 1.0 or "
                                 "duplicate_sends > 0)")
    p_timeline.set_defaults(func=cmd_timeline)

    p_monitor = sub.add_parser("monitor",
                               help="render live progress from a metrics JSONL stream (sessions "
                                    "started with metrics_stream=FILE)")
    p_monitor.add_argument("metrics", help="metrics JSONL stream file")
    p_monitor.add_argument("--follow", action="store_true",
                           help="keep polling until the stream's end line arrives")
    p_monitor.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                           help="poll interval in --follow mode")
    p_monitor.add_argument("--timeout", type=float, default=0.0, metavar="SECONDS",
                           help="give up following after this many wall seconds (0 = never)")
    p_monitor.set_defaults(func=cmd_monitor)

    p_verify = sub.add_parser("verify", help="integrity-check a recorded archive (CRCs, tails)")
    p_verify.add_argument("--record", required=True, help="archive directory")
    p_verify.set_defaults(func=cmd_verify)

    p_salvage = sub.add_parser("salvage",
                               help="recover the valid chunk prefix of a damaged archive")
    p_salvage.add_argument("--record", required=True, help="archive directory")
    p_salvage.add_argument("--out", help="write the recovered archive here (clean v2 format)")
    p_salvage.set_defaults(func=cmd_salvage)

    p_inspect = sub.add_parser("inspect", help="summarize a recorded archive")
    p_inspect.add_argument("--record", required=True)
    p_inspect.add_argument("--ranks", type=int, default=4, metavar="N")
    p_inspect.add_argument("--salvage", action="store_true",
                           help="summarize crash-truncated archives: report on the longest "
                                "recoverable epoch-aligned prefix instead of failing")
    p_inspect.set_defaults(func=cmd_inspect)

    p_diff = sub.add_parser("diff",
                            help="diff two runs: first divergent match per rank, eligible-send "
                                 "pool, per-callsite nondeterminism profile")
    p_diff.add_argument("a", help="reference run: archive dir, outcome trace, or run id")
    p_diff.add_argument("b", help="comparison run: archive dir, outcome trace, or run id")
    p_diff.add_argument("--ledger", metavar="FILE",
                        help="resolve run-id operands against this JSONL run ledger")
    p_diff.add_argument("--context", type=int, default=5, metavar="N",
                        help="deliveries of context shown on each side of a divergence")
    p_diff.add_argument("--ranks", type=int, default=8, metavar="N",
                        help="show at most N ranks in the per-rank divergence table")
    p_diff.add_argument("--out", metavar="FILE", help="write the divergence report as JSON")
    p_diff.add_argument("--timeline", metavar="FILE",
                        help="write a Perfetto trace of only the divergent region (flow arrows, "
                             "both runs side by side)")
    p_diff.set_defaults(func=cmd_diff)

    p_explain = sub.add_parser("explain",
                               help="critical-path & wait-state blame report for a recorded run "
                                    "(which rank made it slow, and who was it waiting on?)")
    p_explain.add_argument("source", help="archive directory, or a ledger run id with --ledger")
    p_explain.add_argument("--ledger", metavar="FILE",
                           help="resolve run-id operands against this JSONL run ledger and append "
                                "a mode=explain entry carrying critical_path_share / max_slack_us "
                                "for `repro runs trend`")
    p_explain.add_argument("--network-seed", type=int, default=0, metavar="N",
                           help="network seed of the rehydrating replay (any seed yields the same "
                                "delivery order; timings are the replay's virtual clock)")
    p_explain.add_argument("--top", type=int, default=10, metavar="K",
                           help="rows shown in the rank/callsite blame tables")
    p_explain.add_argument("--json", metavar="FILE",
                           help="write the schema-validated explain report as JSON")
    p_explain.add_argument("--timeline", metavar="FILE",
                           help="write a Perfetto trace with the critical path highlighted as a "
                                "distinct track")
    p_explain.set_defaults(func=cmd_explain)

    p_runs = sub.add_parser("runs", help="browse the persistent run ledger (list / show / trend)")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="render ledgered run history")
    p_runs_list.add_argument("--ledger", required=True, metavar="FILE")
    p_runs_list.add_argument("--limit", type=int, default=20, metavar="N",
                             help="show at most the last N runs")
    p_runs_list.set_defaults(func=cmd_runs)
    p_runs_show = runs_sub.add_parser("show", help="full detail of one run")
    p_runs_show.add_argument("run_id", help="ledger run id (e.g. r0001)")
    p_runs_show.add_argument("--ledger", required=True, metavar="FILE")
    p_runs_show.set_defaults(func=cmd_runs)
    p_runs_trend = runs_sub.add_parser("trend",
                                       help="metric trends per (workload, mode, ranks) group with "
                                            "Welford z-score regression flags (exit 1 when any "
                                            "fire)")
    p_runs_trend.add_argument("--ledger", required=True, metavar="FILE")
    p_runs_trend.add_argument("--z", type=float, default=3.0, metavar="Z",
                              help="|z| threshold beyond which a run flags as a regression")
    p_runs_trend.add_argument("--sparkline", type=int, nargs="?", const=60, default=None,
                              metavar="WIDTH",
                              help="render each metric as a wide unicode sparkline chart "
                                   "(optionally WIDTH cells, default 60)")
    p_runs_trend.set_defaults(func=cmd_runs)

    p_compare = sub.add_parser("compare", help="run the Figure 13 method comparison on a workload")
    _add_workload_args(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_transcode = sub.add_parser("transcode", help="compress a JSON-lines trace with every method")
    p_transcode.add_argument("--trace", required=True, help="trace file (JSON lines)")
    p_transcode.set_defaults(func=cmd_transcode)

    p_profile = sub.add_parser("profile",
                               help="cProfile a workload pass and print the hotspot table")
    _add_workload_args(p_profile)
    p_profile.add_argument("--chunk-events", type=int, default=1024)
    p_profile.add_argument("--mode", choices=("record", "replay"), default="record",
                           help="profile the record pass, or a replay of a fresh record")
    p_profile.add_argument("--top", type=int, default=15, metavar="N", help="hotspot rows to print")
    p_profile.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative",
                           help="ranking key for the hotspot table")
    p_profile.add_argument("--out", metavar="FILE", help="also dump raw pstats data to FILE")
    p_profile.add_argument("--raw", action="store_true",
                           help="additionally print the full pstats report")
    p_profile.add_argument("--sample", action="store_true",
                           help="use the low-overhead sampling profiler instead of cProfile")
    p_profile.add_argument("--hz", type=float, default=97.0, metavar="HZ",
                           help="sampling rate for --sample (default 97)")
    p_profile.add_argument("--folded-out", metavar="FILE",
                           help="with --sample: write collapsed stacks (flamegraph.pl input)")
    p_profile.add_argument("--speedscope-out", metavar="FILE",
                           help="with --sample: write a speedscope JSON profile")
    p_profile.set_defaults(func=cmd_profile)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
