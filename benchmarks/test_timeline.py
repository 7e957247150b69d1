"""Observability overhead: flow correlation, watchdog, encoder guard.

Measures what ISSUE 4's tentpole costs when it is on — and proves it
costs nothing when it is off:

* flow-correlation overhead — a record+replay pair with
  :class:`~repro.obs.ColumnarFlowRecorder` (what every session attaches)
  vs the same pair bare;
* watchdog overhead — a polling progress watchdog on a healthy run;
* a sample merged timeline artifact (``benchmarks/output/``) that CI
  uploads, validated before it is written;
* a telemetry-off encoder throughput guard: >25% below the
  ``BENCH_encoder.json`` record fails the suite (the observability layer
  must not tax the hot path when disabled).

Scalars land in ``BENCH_timeline.json`` at the repo root so later PRs can
diff against them.
"""

from __future__ import annotations

import json
import os
import time
import warnings

import pytest

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core import Method, compress
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.obs import (
    ColumnarFlowRecorder,
    WatchdogConfig,
    merged_timeline,
    validate_chrome_trace,
    write_timeline,
)
from repro.replay import RecordSession, ReplaySession
from repro.workloads import make_workload

BENCH_TIMELINE_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_timeline.json",
)

NPROCS = 8


@pytest.fixture(scope="session")
def timeline_results():
    """Collects observability perf numbers; written to BENCH_timeline.json."""
    results: dict = {}
    yield results
    if results:
        results["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        with open(BENCH_TIMELINE_JSON, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")


def make_program(messages_per_rank=40):
    program, _ = make_workload(
        "synthetic", NPROCS, seed="3",
        messages_per_rank=str(messages_per_rank), fanout="2",
    )
    return program


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def record_replay(flow=False, watchdog=None):
    program = make_program()
    rec_flow = ColumnarFlowRecorder("record") if flow else None
    record = RecordSession(
        program, nprocs=NPROCS, network_seed=1, keep_outcomes=False,
        flow=rec_flow, watchdog=watchdog,
    ).run()
    rep_flow = ColumnarFlowRecorder("replay") if flow else None
    ReplaySession(
        program, record.archive, network_seed=2,
        flow=rep_flow, watchdog=watchdog,
    ).run()
    return rec_flow, rep_flow


class TestFlowCorrelationOverhead:
    def test_flow_recorder_overhead(self, timeline_results):
        """Record+replay with flow capture vs bare, telemetry off in both."""
        t_bare = _best_of(lambda: record_replay())
        t_flow = _best_of(lambda: record_replay(flow=True))
        ratio = t_flow / t_bare
        timeline_results["flow_overhead_ratio"] = round(ratio, 3)
        timeline_results["bare_record_replay_s"] = round(t_bare, 4)
        emit(
            "timeline_flow_overhead",
            render_table(
                "Causal flow capture overhead (record+replay pair)",
                ["configuration", "wall time (s)"],
                [
                    ("telemetry off, no flow", f"{t_bare:.4f}"),
                    ("flow recorders attached", f"{t_flow:.4f}"),
                ],
                note=f"overhead {100 * (ratio - 1):+.1f}% "
                     "(columnar capture, one list extend per endpoint)",
            ),
        )
        # capture is one list extend per endpoint; anything past 2x is a bug
        assert ratio < 2.0

    def test_watchdog_overhead(self, timeline_results):
        """A healthy run polled every 10 ms must not notice the watchdog."""
        t_bare = _best_of(lambda: record_replay())
        config = WatchdogConfig(deadline=300.0, poll_interval=0.01)
        t_dog = _best_of(lambda: record_replay(watchdog=config))
        ratio = t_dog / t_bare
        timeline_results["watchdog_overhead_ratio"] = round(ratio, 3)
        emit(
            "timeline_watchdog_overhead",
            render_table(
                "Progress watchdog overhead (healthy record+replay pair)",
                ["configuration", "wall time (s)"],
                [
                    ("no watchdog", f"{t_bare:.4f}"),
                    ("watchdog, 10 ms poll", f"{t_dog:.4f}"),
                ],
                note="the watchdog thread reads one int per poll",
            ),
        )
        assert ratio < 1.5


class TestTimelineArtifact:
    def test_sample_merged_timeline(self, timeline_results):
        """Write the artifact CI uploads; validate before publishing."""
        rec_flow, rep_flow = record_replay(flow=True)
        trace = merged_timeline([rec_flow, rep_flow])
        problems = validate_chrome_trace(trace)
        assert problems == []
        out_dir = os.path.join(os.path.dirname(__file__), "output")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "timeline_sample.json")
        write_timeline([rec_flow, rep_flow], path)
        flows = trace["otherData"]["flows"]
        receives = rec_flow.num_receives + rep_flow.num_receives
        timeline_results["timeline_events"] = len(trace["traceEvents"])
        timeline_results["timeline_flow_arrows"] = flows
        emit(
            "timeline_sample",
            render_table(
                "Sample merged timeline (record + replay, 8 ranks)",
                ["metric", "value"],
                [
                    ("trace events", len(trace["traceEvents"])),
                    ("flow arrows", flows),
                    ("matched receives", receives),
                    ("artifact", os.path.relpath(path)),
                ],
                note="load in https://ui.perfetto.dev",
            ),
        )
        assert flows > 0
        assert flows == sum(
            len(set(zip(rec.recv_clock.values.tolist(), rec.recv_sender.values.tolist())))
            for rec in (rec_flow, rep_flow)
        )


class TestProfilerOverheadGate:
    def test_sampling_profiler_overhead(self, timeline_results):
        """Sampling at the default 97 Hz must stay within 5% of a bare run.

        The profiler reads ``sys._current_frames()`` from a daemon thread
        and folds one stack per tick — the profiled thread never executes
        profiler code. Best-of-N record passes, bare vs ``profile=97``;
        the ratio lands in ``BENCH_timeline.json`` and >1.05 fails.
        """
        program = make_program(messages_per_rank=80)

        def run_record(profile=None):
            RecordSession(
                program, nprocs=NPROCS, network_seed=1,
                keep_outcomes=False, profile=profile,
            ).run()

        t_bare = _best_of(run_record, repeats=5)
        t_prof = _best_of(lambda: run_record(profile=97), repeats=5)
        ratio = t_prof / t_bare
        timeline_results["profiler_overhead_ratio"] = round(ratio, 3)
        emit(
            "timeline_profiler_overhead",
            render_table(
                "Sampling profiler overhead (record, 8 ranks, 97 Hz)",
                ["configuration", "wall time (s)"],
                [
                    ("no profiler", f"{t_bare:.4f}"),
                    ("sampling at 97 Hz", f"{t_prof:.4f}"),
                ],
                note=f"overhead {100 * (ratio - 1):+.1f}% "
                     "(out-of-thread frame walks)",
            ),
        )
        assert ratio <= 1.05, (
            f"sampling profiler costs {100 * (ratio - 1):.1f}% — the "
            "sampler must stay out of the profiled thread's way"
        )


def synthetic_stream(n):
    import random

    rng = random.Random(0)
    clocks = {s: 0 for s in range(8)}
    outs = []
    for _ in range(n):
        s = rng.randrange(8)
        clocks[s] += rng.randrange(1, 3)
        outs.append(
            MFOutcome("cs", MFKind.TEST, (ReceiveEvent(s, clocks[s] * 8 + s),))
        )
    return outs


def _load_previous_timeline() -> dict | None:
    try:
        with open(BENCH_TIMELINE_JSON, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class TestEncoderThroughputGuard:
    def test_telemetry_overhead_amortized_on_hot_path(self, timeline_results):
        """Enabled telemetry must cost the columnar encoder almost nothing.

        The hot path publishes obs per *chunk* (one span + three counter
        adds per flush), never per event — so encoding the same columnar
        chunks under an enabled registry must stay within a few percent of
        the telemetry-off rate. ``encoder_guard_ratio`` is that on/off
        ratio, measured like-for-like in one process.
        """
        from repro.core.columnar import build_columnar_tables, encode_table
        from repro.obs import TelemetryRegistry, use_registry

        outs = synthetic_stream(20_000)
        tables = [
            t
            for ts in build_columnar_tables(outs, chunk_events=1024).values()
            for t in ts
        ]
        n = sum(t.num_events for t in tables)

        def encode_all():
            for t in tables:
                encode_table(t, replay_assist=True)

        t_off = _best_of(encode_all, repeats=5)
        registry = TelemetryRegistry("bench")
        with use_registry(registry):
            t_on = _best_of(encode_all, repeats=5)
        ratio = t_off / t_on  # 1.0 = free; below 1 means telemetry taxed us
        timeline_results["encoder_guard_ratio"] = round(ratio, 3)
        timeline_results["encoder_events_per_sec_telemetry_off"] = round(n / t_off)
        timeline_results["encoder_events_per_sec_telemetry_on"] = round(n / t_on)
        emit(
            "timeline_encoder_guard",
            render_table(
                "Columnar encoder: telemetry on vs off (per-chunk obs)",
                ["configuration", "events/s"],
                [
                    ("telemetry off", f"{n / t_off:,.0f}"),
                    ("telemetry on", f"{n / t_on:,.0f}"),
                    ("off/on ratio", f"{ratio:.3f}"),
                ],
                note="obs is amortized per chunk (span + 3 counters per "
                "flush), so enabling it must be nearly free",
            ),
        )
        # per-chunk amortization: enabled telemetry may cost at most 25%
        if ratio < 0.8:
            pytest.fail(
                f"enabled telemetry taxes the columnar encoder "
                f"{100 * (t_on / t_off - 1):.0f}% — obs is no longer "
                "amortized per batch"
            )

    def test_telemetry_off_rate_not_regressed(self, timeline_results):
        """The telemetry-off compress rate must hold against *its own* history.

        Compares like against like: the previous ``BENCH_timeline.json``
        measurement of this exact loop (not BENCH_encoder.json's
        pytest-benchmark number, which uses a different harness). >25%
        slower fails, any slowdown warns.
        """
        outs = synthetic_stream(20_000)
        t = _best_of(lambda: compress(outs, Method.CDC), repeats=5)
        current = len(outs) / t
        timeline_results["compress_events_per_sec_telemetry_off"] = round(current)
        previous = _load_previous_timeline()
        prev = (previous or {}).get("compress_events_per_sec_telemetry_off")
        if prev is None:
            pytest.skip("no previous BENCH_timeline.json compress rate")
        ratio = current / prev
        if ratio < 0.75:
            pytest.fail(
                f"telemetry-off compress throughput regressed "
                f"{100 * (1 - ratio):.0f}%: {current:,.0f} events/s now vs "
                f"{prev:,} recorded"
            )
        if ratio < 1.0:
            warnings.warn(
                f"telemetry-off compress throughput down "
                f"{100 * (1 - ratio):.1f}% vs recorded "
                f"({current:,.0f} vs {prev:,} events/s)",
                stacklevel=1,
            )
