"""Per-layer probes: the traced run.

Layers are the modules of ``src/repro`` and are measured from outside:
by timing calls into each module's public functions on kept outcome
streams, and by differencing session configurations (record in memory
minus baseline is the recorder, durable minus in-memory is the store's
streaming write, and so on). Nothing is added inside ``src/repro``.
Every call runs inside a span of ``bench/trace.py``; one durable
record + replay pair per repetition also runs outside any span, and the
ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import time
import zlib
from typing import Any, Callable

from repro.analysis import analyze_critical_path, diff_runs, rehydrate_run
from repro.core.columnar import build_columnar_tables
from repro.core.compression import ZLIB_LEVEL
from repro.core.formats import deserialize_cdc_chunks, serialize_cdc_chunks
from repro.core.pipeline import reconstruct_table
from repro.obs import ColumnarFlowRecorder, TelemetryRegistry, use_registry
from repro.replay.durable_store import load_archive, save_archive
from repro.replay.recorder import DEFAULT_CHUNK_EVENTS
from repro.replay.session import BaselineSession

from bench.phases import (
    Checks,
    Samples,
    dir_bytes,
    encode_next,
    encode_streams,
    record,
    replay,
    same_final_state,
)
from bench.trace import Tracer
from bench.workloads import Inputs, Workload

#: session repetitions; each is eleven session runs, so the floor is low.
MIN_REPS = 2
#: a call shorter than this is repeated until the timed region is this long.
PROBE_MIN_S = 0.5
#: the serialized bytes of each CDC table, from the codec's own counters.
CDC_TABLES = ("permutation", "with_next", "unmatched", "epoch", "exceptions", "assist")


def encode_tables(tables_by_rank) -> dict[int, dict[str, list]]:
    """``encode_table`` over every chunk table, ceilings running per
    callsite; rank -> callsite -> chunks."""
    encoded: dict[int, dict[str, list]] = {}
    for rank, by_callsite in tables_by_rank.items():
        encoded[rank] = {}
        for callsite, tables in by_callsite.items():
            ceilings: dict[int, int] = {}
            encoded[rank][callsite] = [encode_next(t, ceilings) for t in tables]
    return encoded


def run_layers(
    workload: Workload,
    inputs: Inputs,
    tmp: str,
    seconds: float,
    checks: Checks,
    tracer: Tracer,
    smoke: bool = False,
) -> tuple[Samples, dict[str, float]]:
    """Measure every layer for ``seconds``; returns the timing samples and
    the per-layer metric values."""
    started = time.perf_counter()
    elapsed = lambda: time.perf_counter() - started
    # --smoke: one repetition, one call per probe
    min_reps, probe_min_s = (1, 0.0) if smoke else (MIN_REPS, PROBE_MIN_S)
    samples = Samples(tracer)
    bare = Samples()  # the same calls outside any span
    seeds = inputs.seeds
    dir_a, dir_s = os.path.join(tmp, "a"), os.path.join(tmp, "saved")

    def looped(name: str, fn: Callable[[], Any]) -> Any:
        """One sample: mean seconds per call over a region >= ``probe_min_s``."""
        gc.collect()
        calls = 0
        with tracer.span(name) as span:
            t0 = time.perf_counter()
            while True:
                result = fn()
                calls += 1
                took = time.perf_counter() - t0
                if took >= probe_min_s:
                    break
            span["counts"]["calls"] = calls
        samples.values.setdefault(name, []).append(took / calls)
        return result

    # once, untimed: both records with outcomes kept, for the codec probes
    # and the in-memory diff.
    kept_a = record(inputs, seeds["record"], dir_a, keep_outcomes=True)
    kept_b = record(inputs, seeds["record_b"], keep_outcomes=True)
    outcomes, nprocs = kept_a.outcomes, inputs.nprocs
    receives = kept_a.total_receive_events()
    chunks = [chunk for _, chunk in kept_a.archive.iter_all()]

    with tracer.span("probes.core", receives=receives, chunks=len(chunks)):
        tables = looped(
            "core.build_tables",
            lambda: {
                r: build_columnar_tables(outcomes[r], DEFAULT_CHUNK_EVENTS)
                for r in range(nprocs)
            },
        )
        encoded = looped("core.encode", lambda: encode_tables(tables))
        payloads = looped(
            "core.serialize", lambda: [serialize_cdc_chunks([c]) for c in chunks]
        )
        stored = looped(
            "core.zlib", lambda: [zlib.compress(p, ZLIB_LEVEL) for p in payloads]
        )
        inflated = looped("core.inflate", lambda: [zlib.decompress(s) for s in stored])
        decoded = looped(
            "core.deserialize", lambda: [deserialize_cdc_chunks(p)[0] for p in inflated]
        )
        sources = [
            table.to_record_table()
            for tables_of_rank in encode_streams(outcomes, nprocs)[1].values()
            for table in tables_of_rank
        ]
        rebuilt = looped(
            "core.reconstruct",
            lambda: [reconstruct_table(c, s.matched) for c, s in zip(decoded, sources)],
        )
        # the codec's existing per-table byte counters, read by serializing
        # once more under a private registry.
        registry = TelemetryRegistry()
        with use_registry(registry):
            for chunk in chunks:
                serialize_cdc_chunks([chunk])
        table_bytes = registry.counters()
    checks.check(receives > 0 and len(chunks) > 0, "kept record is non-empty")
    checks.check(
        encoded == {r: kept_a.archive.chunks_by_callsite(r) for r in range(nprocs)},
        "probe encode equals the recorded chunks",
    )
    checks.check(decoded == chunks, "serialize/zlib round trip")
    checks.check(rebuilt == sources, "reconstructed tables equal their sources")
    moved = sum(c.diff.num_moved for c in chunks) / max(1, receives)

    with tracer.span("probes.store", frames=len(chunks)):
        looped("store.save", lambda: save_archive(kept_a.archive, dir_s, fsync=True))
        looped(
            "store.save_nofsync", lambda: save_archive(kept_a.archive, dir_s, fsync=False)
        )
        loaded, report = looped("store.load", lambda: load_archive(dir_a))
    checks.check(report.clean, "durable record reloads clean")
    checks.check(
        loaded.chunks_by_rank == kept_a.archive.chunks_by_rank,
        "durable record equals the in-memory archive",
    )
    disk = dir_bytes(dir_a)

    rep = 0
    reps_started = elapsed()
    # past the floor, another repetition starts only if it should end in budget.
    while rep < min_reps or elapsed() + (elapsed() - reps_started) / rep <= seconds:

        def bare_pair() -> None:
            rec = bare.timed("record", lambda: record(inputs, seeds["record"], dir_a))
            run = bare.timed("replay", lambda: replay(inputs, dir_a))
            checks.check(same_final_state(rec, run), f"rep {rep}: untraced replay")

        if rep % 2 == 0:  # alternate which of traced/untraced goes first
            bare_pair()
        with tracer.span("rep", rep=rep) as rep_span:
            base = samples.timed(
                "sim.baseline",
                lambda: BaselineSession(
                    inputs.program, nprocs, network_seed=seeds["record"]
                ).run(),
                rep,
            )
            mem = samples.timed(
                "recorder.record_mem", lambda: record(inputs, seeds["record"]), rep
            )
            durable = samples.timed(
                "store.record_durable",
                lambda: record(inputs, seeds["record"], dir_a),
                rep,
            )
            replayed = samples.timed(
                "replayer.replay", lambda: replay(inputs, mem.archive), rep
            )
            from_disk = samples.timed(
                "replayer.replay_dir", lambda: replay(inputs, dir_a), rep
            )
            telemetry = samples.timed(
                "obs.record_telemetry",
                lambda: record(inputs, seeds["record"], telemetry=True),
                rep,
            )
            samples.timed(
                "obs.replay_flow",
                lambda: replay(inputs, mem.archive, flow=ColumnarFlowRecorder()),
                rep,
            )
            flow = ColumnarFlowRecorder(label="bench")
            samples.timed(
                "analysis.rehydrate",
                lambda: rehydrate_run(dir_a, flow=flow, keep_outcomes=False),
                rep,
            )
            path = samples.timed(
                "analysis.critical_path", lambda: analyze_critical_path(flow), rep
            )
            report = samples.timed(
                "analysis.diff_compare", lambda: diff_runs(kept_a, kept_b), rep
            )
            rep_span["counts"].update(
                events=base.stats.total_events, receives=receives, chunks=len(chunks)
            )
        if rep % 2 == 1:
            bare_pair()
        checks.check(same_final_state(mem, replayed), f"rep {rep}: in-memory replay")
        checks.check(same_final_state(durable, from_disk), f"rep {rep}: replay from disk")
        checks.check(
            telemetry.archive.chunks_by_rank == mem.archive.chunks_by_rank
            == kept_a.archive.chunks_by_rank,
            f"rep {rep}: telemetry leaves the archive unchanged",
        )
        checks.check(path.matched > 0, f"rep {rep}: critical path saw the run")
        # non-determinism guard: a hidden-deterministic workload records the
        # same archive under both network seeds, any other a different order.
        checks.check(
            report.identical == workload.deterministic
            and (kept_a.archive.chunks_by_rank == kept_b.archive.chunks_by_rank)
            == workload.deterministic,
            f"rep {rep}: two network seeds "
            f"{'are identical' if workload.deterministic else 'differ'}",
        )
        rep += 1

    best = samples.best
    baseline_s, mem_s, durable_s = (
        best("sim.baseline"), best("recorder.record_mem"), best("store.record_durable")
    )
    replay_s = best("replayer.replay")
    self_s = mem_s - baseline_s
    values = {
        "workloads.build_s": inputs.build_s,
        "sim.baseline_s": baseline_s,
        "sim.events_per_s": base.stats.total_events / baseline_s,
        "sim.events": base.stats.total_events,
        "sim.mf_calls": base.stats.total_mf_calls,
        "sim.messages": base.stats.total_messages,
        "recorder.record_mem_s": mem_s,
        "recorder.self_s": self_s,
        "recorder.overhead_ratio": mem_s / baseline_s,
        "recorder.hook_s": self_s - best("core.build_tables") - best("core.encode"),
        "recorder.chunks": len(chunks),
        "recorder.receive_events": receives,
        "core.build_tables_s": best("core.build_tables"),
        "core.encode_s": best("core.encode"),
        "core.encode_events_per_s": receives / best("core.encode"),
        "core.serialize_s": best("core.serialize"),
        "core.zlib_s": best("core.zlib"),
        "core.inflate_s": best("core.inflate"),
        "core.deserialize_s": best("core.deserialize"),
        "core.reconstruct_s": best("core.reconstruct"),
        "core.payload_bytes": sum(map(len, payloads)),
        "core.stored_bytes": sum(map(len, stored)),
        "core.moved_share": moved,
        **{
            f"core.bytes.{t}": table_bytes.get(f"format.cdc.{t}_bytes", 0)
            for t in CDC_TABLES
        },
        "store.record_durable_s": durable_s,
        "store.stream_write_s": durable_s - mem_s,
        "store.save_s": best("store.save"),
        "store.save_nofsync_s": best("store.save_nofsync"),
        "store.fsync_share": 1.0 - best("store.save_nofsync") / best("store.save"),
        "store.load_s": best("store.load"),
        "store.frames": len(chunks),
        "store.disk_bytes": disk,
        "store.frame_overhead_bytes": disk - sum(map(len, stored)),
        "replayer.replay_s": replay_s,
        "replayer.self_s": replay_s - baseline_s,
        "replayer.slowdown_ratio": replay_s / baseline_s,
        "analysis.rehydrate_s": best("analysis.rehydrate"),
        "analysis.critical_path_s": best("analysis.critical_path"),
        "analysis.flow_events": flow.num_sends + flow.num_receives,
        "analysis.diff_compare_s": best("analysis.diff_compare"),
        "obs.telemetry_overhead_ratio": best("obs.record_telemetry") / mem_s,
        "obs.flow_overhead_ratio": best("obs.replay_flow") / replay_s,
        "trace.overhead_ratio": (durable_s + best("replayer.replay_dir"))
        / (bare.best("record") + bare.best("replay")),
        "trace.spans": len(tracer.spans),
    }
    samples.values.update({f"untraced.{k}": v for k, v in bare.values.items()})
    return samples, values
