"""End-to-end phases and their correctness checks.

Every workload runs the same cycle — durable record, replay from disk,
cold ``explain``, ``diff`` against a second record — then pushes the kept
outcome streams through the codec's write and read paths. All calls go
through ``src/repro``'s public functions with the load shape fixed here:
serial encoder, telemetry off, replay assist on, default chunk size, and
durable files written without ``fsync``: the sandbox's virtual disk is not
the node-local storage the system targets and its flush latency alone
spread ``record`` by 12% between runs, so the device's share is left to
the ``store.save_s``/``store.fsync_share`` probes.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Any, Callable

from repro.analysis import analyze_critical_path, diff_runs
from repro.core.columnar import ColumnarTableBuilder, encode_table
from repro.core.compression import Method, compress
from repro.core.pipeline import reconstruct_table
from repro.replay.chunk_store import RecordArchive
from repro.replay.durable_store import (
    ARCHIVE_MAGIC,
    frame_bytes,
    load_archive,
    rank_filename,
    save_archive,
)
from repro.replay.recorder import DEFAULT_CHUNK_EVENTS
from repro.replay.session import RecordSession, ReplaySession

from bench.workloads import Inputs, Workload, make_inputs

#: the floor under the time-driven loops; at the declared sizes a run fits
#: about ten repetitions.
MIN_REPS = 5
#: share of ``--seconds`` the record/replay/explain/diff cycles may use;
#: the verification pair and the codec passes get the rest.
CYCLE_SHARE = 0.85


class Checks:
    """Correctness checks, counted: ``failed`` over ``attempted``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Samples:
    """Timing samples by name; every timed call collects garbage first and
    leaves the collector enabled.

    A metric is computed from the *fastest* sample. On the shared two-core
    sandbox other tenants slow a call by 5-50% for seconds at a time and
    never speed it up, so medians of ten runs spread 5-17% while minima
    spread 1-3% (numbers in ``bench/README.md``). Median and quartiles are
    reported beside it.
    """

    def __init__(self, tracer=None) -> None:
        self.values: dict[str, list[float]] = {}
        self.tracer = tracer

    def timed(self, name: str, fn: Callable[[], Any], rep: int | None = None) -> Any:
        gc.collect()
        with self.tracer.span(name, rep=rep) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        self.values.setdefault(name, []).append(elapsed)
        return result

    def best(self, name: str) -> float:
        return min(self.values[name])

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for name, values in self.values.items():
            q1, _, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            out[name] = {
                "best": min(values),
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "n": len(values),
            }
        return out


# -- sessions, with the load shape fixed -------------------------------------


def record(inputs: Inputs, network_seed: int, store_dir: str | None = None, **kw):
    """``RecordSession(...).run()``; a durable record replaces ``store_dir``."""
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
    kw.setdefault("keep_outcomes", False)
    kw.setdefault("store_fsync", False)
    return RecordSession(
        inputs.program,
        inputs.nprocs,
        network_seed=network_seed,
        store_dir=store_dir,
        meta=inputs.meta,
        **kw,
    ).run()


def replay(inputs: Inputs, archive, **kw):
    """Load (when ``archive`` is a directory) and replay under the replay seed."""
    kw.setdefault("keep_outcomes", False)
    return ReplaySession(
        inputs.program, archive, network_seed=inputs.seeds["replay"], **kw
    ).run()


def same_final_state(a, b) -> bool:
    """Order-sensitive equality of what a replay must reproduce; unlike the
    outcome streams these exist when ``keep_outcomes=False``."""
    return (
        list(a.final_clocks.items()) == list(b.final_clocks.items())
        and list(a.app_results.items()) == list(b.app_results.items())
    )


def dir_bytes(directory: str) -> int:
    """Bytes on disk: rank files plus manifest."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def dir_digest(directory: str) -> str:
    """SHA-256 over the archive's files in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0" + _read(os.path.join(directory, name)))
    return digest.hexdigest()


# -- codec paths on kept outcome streams ---------------------------------------


def encode_next(table, ceilings: dict[int, int]):
    """``RecordingController._flush_table``'s serial branch: encode one
    table, then advance its callsite's running per-sender ceilings."""
    chunk = encode_table(table, replay_assist=True, prior_ceilings=ceilings)
    for sender, ceiling in chunk.epoch.max_clock_by_rank.items():
        if ceilings.get(sender, -1) < ceiling:
            ceilings[sender] = ceiling
    return chunk


def encode_streams(outcomes, nprocs: int):
    """The write path up to the archive: the recorder's flush logic
    (``RecordingController.on_outcome``/``_flush_table``/``finalize``) over
    kept outcome streams, so the chunks equal the recorded archive's.

    Returns ``(archive, tables)``; ``tables[rank]`` are the sealed columnar
    tables in that rank's flush order, one per chunk.
    """
    archive = RecordArchive(nprocs)
    tables: dict[int, list] = {}
    for rank in range(nprocs):
        builders: dict[str, ColumnarTableBuilder] = {}
        ceilings: dict[str, dict[int, int]] = {}
        sealed = tables[rank] = []

        def flush(builder: ColumnarTableBuilder) -> None:
            table = builder.flush()
            if not (table.num_events or table.unmatched_runs):
                return
            chunk = encode_next(table, ceilings.setdefault(table.callsite, {}))
            archive.append(rank, chunk)
            sealed.append(table)

        for outcome in outcomes[rank]:
            builder = builders.get(outcome.callsite)
            if builder is None:
                builder = builders[outcome.callsite] = ColumnarTableBuilder(
                    outcome.callsite
                )
            builder.add(outcome)
            if builder.num_events >= DEFAULT_CHUNK_EVENTS:
                flush(builder)
        for builder in builders.values():
            if builder.dirty:
                flush(builder)
    return archive, tables


def write_path(outcomes, nprocs: int):
    """Outcome streams → tables → CDC chunks → serialize → zlib → framed
    rank-file bytes, as ``save_archive`` assembles them, kept in memory:
    creating and renaming the files is left out because the sandbox's file
    system spread it 7-16% between runs (``store.save_nofsync_s`` has it).

    Returns ``(archive, tables, files)``; ``files[rank]`` is the bytes of
    that rank's file.
    """
    archive, tables = encode_streams(outcomes, nprocs)
    files = {
        rank: ARCHIVE_MAGIC + b"".join(map(frame_bytes, archive.chunks(rank)))
        for rank in range(nprocs)
    }
    return archive, tables, files


def read_path(directory: str, sources):
    """Durable files → CRC/inflate/deserialize → reference order + stored
    permutation → record tables. ``sources[rank][i].matched`` supplies the
    receives of chunk ``i``, as a replay would."""
    archive, report = load_archive(directory, mode="strict")
    rebuilt = {
        rank: [
            reconstruct_table(chunk, source.matched)
            for chunk, source in zip(archive.chunks(rank), tables)
        ]
        for rank, tables in sources.items()
    }
    return report, rebuilt


# -- the end-to-end run ----------------------------------------------------------


def warm_up(workload: Workload, seed: int, tmp: str) -> None:
    """One discarded small-scale pass over every phase: fills import and
    numpy caches so the first timed repetition is not the slow one."""
    inputs = make_inputs(workload, seed, smoke=True)
    dir_a, dir_b = os.path.join(tmp, "warm-a"), os.path.join(tmp, "warm-b")
    kept = record(inputs, inputs.seeds["record"], dir_a, keep_outcomes=True)
    record(inputs, inputs.seeds["record_b"], dir_b)
    replay(inputs, dir_a)
    analyze_critical_path(dir_a)
    diff_runs(dir_a, dir_b)
    archive, tables, _ = write_path(kept.outcomes, inputs.nprocs)
    save_archive(archive, dir_b, fsync=False)
    sources = {r: [t.to_record_table() for t in ts] for r, ts in tables.items()}
    read_path(dir_b, sources)


def run_end_to_end(
    workload: Workload,
    inputs: Inputs,
    tmp: str,
    seconds: float,
    checks: Checks,
    smoke: bool = False,
) -> tuple[Samples, dict[str, float]]:
    """Measure for ``seconds``; returns the timing samples and the metric
    values with the counts they come from. ``tmp/b`` already holds the
    second record."""
    samples = Samples()
    min_reps = 1 if smoke else MIN_REPS
    dir_a, dir_b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
    dir_codec = os.path.join(tmp, "codec")
    started = time.perf_counter()
    elapsed = lambda: time.perf_counter() - started
    events = 0
    rep = 0
    # the phases are interleaved within each repetition, so a slow spell of
    # the machine lands on every metric alike; past the floor, another
    # repetition starts only if it should end in budget.
    while rep < min_reps or elapsed() * (1 + 1 / rep) <= seconds * CYCLE_SHARE:
        rec = samples.timed(
            "record", lambda: record(inputs, inputs.seeds["record"], dir_a)
        )
        rep_run = samples.timed("replay", lambda: replay(inputs, dir_a))
        events = rec.stats.total_events
        checks.check(same_final_state(rec, rep_run), f"rep {rep}: replay final state")
        checks.check(
            rep_run.stats.total_events > 0 and events > 0, f"rep {rep}: events ran"
        )
        explained = samples.timed("explain", lambda: analyze_critical_path(dir_a))
        checks.check(
            explained.matched > 0 and explained.nranks == inputs.nprocs,
            f"rep {rep}: explain saw the run",
        )
        report = samples.timed("diff", lambda: diff_runs(dir_a, dir_b))
        # non-determinism guard: the workload still does what its row says.
        checks.check(
            report.identical == workload.deterministic and report.events_a > 0,
            f"rep {rep}: two network seeds "
            f"{'are identical' if workload.deterministic else 'differ'}",
        )
        rep += 1

    # once, untimed: with outcomes kept, record and replay streams must be
    # non-empty and equal (they are empty lists on the timed path).
    kept = record(inputs, inputs.seeds["record"], keep_outcomes=True)
    kept_replay = replay(inputs, kept.archive, keep_outcomes=True)
    receives = kept.total_receive_events()
    checks.check(receives > 0, "kept outcome streams are non-empty")
    checks.check(
        kept.outcomes == kept_replay.outcomes and same_final_state(kept, kept_replay),
        "kept outcome streams: replay equals record",
    )
    checks.check(
        load_archive(dir_a)[0].chunks_by_rank == kept.archive.chunks_by_rank,
        "timed record on disk equals the kept record",
    )

    sources = None
    passes = 0
    while passes < min_reps or elapsed() < seconds:
        archive, tables, files = samples.timed(
            "encode", lambda: write_path(kept.outcomes, inputs.nprocs)
        )
        if sources is None:
            sources = {
                r: [t.to_record_table() for t in ts] for r, ts in tables.items()
            }
            checks.check(
                archive.chunks_by_rank == kept.archive.chunks_by_rank,
                "write path reproduces the recorded chunks",
            )
            save_archive(archive, dir_codec, fsync=False)
            checks.check(
                all(
                    _read(os.path.join(dir_codec, rank_filename(r))) == data
                    for r, data in files.items()
                ),
                "write path's bytes equal the files save_archive writes",
            )
        report, rebuilt = samples.timed(
            "decode", lambda: read_path(dir_codec, sources)
        )
        checks.check(report.clean, f"pass {passes}: reload is clean")
        checks.check(rebuilt == sources, f"pass {passes}: reconstructed tables")
        passes += 1

    disk = dir_bytes(dir_a)
    gzip = sum(
        len(compress(kept.outcomes[r], Method.GZIP)) for r in range(inputs.nprocs)
    )
    values = {
        "events": events,
        "receives": receives,
        "disk_bytes": disk,
        "gzip_bytes": gzip,
        "archive_digest": dir_digest(dir_a),
        "bytes_per_receive_event": disk / receives,
        "disk_vs_gzip_ratio": gzip / disk,
        "encode_events_per_s": receives / samples.best("encode"),
        "decode_events_per_s": receives / samples.best("decode"),
    }
    # engine events of the recorded run over the fastest wall of each phase
    for phase in ("record", "replay", "explain", "diff"):
        values[f"{phase}_events_per_s"] = events / samples.best(phase)
    return samples, values
