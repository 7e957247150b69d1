"""Section 6.2 rates: encoder throughput, queue balance, piggyback cost.

Paper numbers: CDC thread drains 331K events/s/process vs the application
producing 258 events/s/process, so the bounded observe queue never blocks;
the 8-byte clock piggyback costs ~1.18% runtime.
"""

import time
import warnings

import pytest

from repro.core import compress, Method
from repro.core.columnar import ColumnarTable, encode_table
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.replay import FluidQueueModel, RecordSession
from repro.replay.cost_model import cdc_cost_model
from repro.sim import LatencyModel
from repro.workloads import mcb
from repro.analysis import render_table
from benchmarks.conftest import emit, load_previous_bench


def synthetic_stream(n):
    import random

    rng = random.Random(0)
    clocks = {s: 0 for s in range(8)}
    outs = []
    for i in range(n):
        s = rng.randrange(8)
        clocks[s] += rng.randrange(1, 3)
        outs.append(
            MFOutcome("cs", MFKind.TEST, (ReceiveEvent(s, clocks[s] * 8 + s),))
        )
    return outs


def _best_of(fn, repeats=5):
    """Minimum wall time over ``repeats`` runs — the standard noise filter."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestEncoderThroughput:
    def test_cdc_encoder_events_per_second(self, benchmark, bench_results):
        """Real wall-clock throughput of the Python CDC encoder."""
        outs = synthetic_stream(20_000)
        result = benchmark(compress, outs, Method.CDC)
        assert result
        events_per_sec = len(outs) / benchmark.stats.stats.mean
        bench_results["encoder_events_per_sec"] = round(events_per_sec)
        emit(
            "throughput_encoder",
            render_table(
                "Section 6.2 — encoder throughput (this implementation)",
                ["metric", "value"],
                [
                    ("events encoded", len(outs)),
                    ("mean wall time (s)", f"{benchmark.stats.stats.mean:.4f}"),
                    ("events/second", f"{events_per_sec:,.0f}"),
                ],
                note="paper's C implementation: 331K events/s/process",
            ),
        )
        # a Python encoder should still beat the paper's *production* rate
        # (258 events/s) by orders of magnitude
        assert events_per_sec > 50_000


class TestKernelSpeedup:
    """Batch numpy kernels vs the scalar reference they replaced.

    The tentpole target is a ≥3x speedup on the varint/LP microbenchmarks;
    ratios land in BENCH_encoder.json so later PRs can track the trend.
    """

    N = 200_000

    def _values(self):
        import random

        rng = random.Random(1)
        # LP residual distribution: clustered near zero, occasional 2-3 byte
        return [rng.randrange(-300, 300) for _ in range(self.N)]

    def test_svarint_batch_speedup(self, bench_results):
        from repro.core.varint import decode_varint_stream, encode_svarint_array
        from tests.core.oracles import decode_svarint_array_scalar, encode_svarint_array_scalar

        values = self._values()
        buf = encode_svarint_array(values)
        assert buf == encode_svarint_array_scalar(values)

        t_scalar = _best_of(lambda: encode_svarint_array_scalar(values))
        t_batch = _best_of(lambda: encode_svarint_array(values))
        enc_speedup = t_scalar / t_batch

        t_scalar_d = _best_of(lambda: decode_svarint_array_scalar(buf, 0))
        assert decode_varint_stream(buf, 0)[1][1:] == values  # behind the length prefix
        t_batch_d = _best_of(lambda: decode_varint_stream(buf, 0))
        dec_speedup = t_scalar_d / t_batch_d

        bench_results["kernel_svarint_encode_speedup"] = round(enc_speedup, 2)
        bench_results["kernel_svarint_decode_speedup"] = round(dec_speedup, 2)
        emit(
            "throughput_kernels_varint",
            render_table(
                "Batch svarint kernels vs scalar reference",
                ["kernel", "scalar (s)", "batch (s)", "speedup"],
                [
                    ("encode", f"{t_scalar:.4f}", f"{t_batch:.4f}", f"{enc_speedup:.1f}x"),
                    ("decode", f"{t_scalar_d:.4f}", f"{t_batch_d:.4f}", f"{dec_speedup:.1f}x"),
                ],
                note=f"{self.N:,} values, LP-residual distribution",
            ),
        )
        assert enc_speedup >= 3.0
        assert dec_speedup >= 3.0

    def test_lp_batch_speedup(self, bench_results):
        from repro.core.lp_encoding import lp_decode, lp_encode
        from tests.core.oracles import lp_decode_auto, lp_encode_auto

        values = sorted(abs(v) * 7 for v in self._values())  # clock-like
        errors = lp_encode(values)
        assert list(lp_encode_auto(values)) == errors

        t_scalar = _best_of(lambda: lp_encode(values))
        t_batch = _best_of(lambda: lp_encode_auto(values))
        enc_speedup = t_scalar / t_batch

        t_scalar_d = _best_of(lambda: lp_decode(errors))
        t_batch_d = _best_of(lambda: lp_decode_auto(errors))
        dec_speedup = t_scalar_d / t_batch_d

        bench_results["kernel_lp_encode_speedup"] = round(enc_speedup, 2)
        bench_results["kernel_lp_decode_speedup"] = round(dec_speedup, 2)
        emit(
            "throughput_kernels_lp",
            render_table(
                "Batch order-2 LP kernels vs scalar reference",
                ["kernel", "scalar (s)", "batch (s)", "speedup"],
                [
                    ("encode", f"{t_scalar:.4f}", f"{t_batch:.4f}", f"{enc_speedup:.1f}x"),
                    ("decode", f"{t_scalar_d:.4f}", f"{t_batch_d:.4f}", f"{dec_speedup:.1f}x"),
                ],
                note=f"{len(values):,} monotone clock-like values",
            ),
        )
        assert enc_speedup >= 3.0
        assert dec_speedup >= 3.0


def _columnar_stream(n_chunks=128, chunk=4096, nsenders=8, seed=0):
    """Recorder-shaped columnar chunks: near-sorted with local inversions.

    This is what the columnar builders hand the encoder at scale — mostly
    reference-ordered (hidden determinism, Figure 17) with occasional
    bursts of reordering from network noise.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    tables = []
    base = 0
    for _ in range(n_chunks):
        ranks = rng.integers(0, nsenders, chunk).astype(np.int64)
        clocks = (base + np.arange(chunk, dtype=np.int64)) * nsenders + ranks
        if rng.random() < 0.2:  # a disordered chunk: ~2% adjacent swaps
            idx = rng.integers(0, chunk - 1, chunk // 50)
            for j in idx:
                clocks[[j, j + 1]] = clocks[[j + 1, j]]
                ranks[[j, j + 1]] = ranks[[j + 1, j]]
        base += chunk
        tables.append(ColumnarTable("cs", ranks, clocks))
    return tables


class TestColumnarEncode:
    def test_columnar_aggregate_throughput(self, bench_results):
        """Single-process encode rate on recorder-shaped columnar chunks.

        The paper-scale bar: ≥5M events/s through the columnar encode path
        on near-sorted streams (the recorder's steady state).
        """
        tables = _columnar_stream()
        total = sum(t.num_events for t in tables)

        def encode_all():
            for t in tables:
                encode_table(t, replay_assist=True)

        best = _best_of(encode_all, repeats=3)
        rate = total / best
        bench_results["encode_events_per_sec_aggregate"] = round(rate)
        emit(
            "throughput_columnar_aggregate",
            render_table(
                "Columnar encode: aggregate throughput (near-sorted stream)",
                ["metric", "value"],
                [
                    ("events", f"{total:,}"),
                    ("wall time (s)", f"{best:.3f}"),
                    ("events/second", f"{rate:,.0f}"),
                ],
                note="bar: ≥5M events/s so paper-scale rank counts stay "
                "I/O-bound",
            ),
        )
        assert rate >= 5_000_000


#: Welford z-gate: fail when the fresh number sits this many σ below the
#: recorded history's mean (regression direction only).
GUARD_Z = 3.0
#: minimum history length before the z-gate arms (small-sample σ is noise).
GUARD_MIN_RUNS = 3
#: history entries kept per metric in BENCH_encoder.json.
GUARD_HISTORY = 20


class TestRegressionGuard:
    def _welford_gate(self, bench_results, previous, metric, current):
        """Hard-floor + Welford z-score regression gate for one metric.

        Maintains ``<metric>_history`` in BENCH_encoder.json (capped at
        :data:`GUARD_HISTORY`); once :data:`GUARD_MIN_RUNS` runs are
        recorded, a fresh value more than :data:`GUARD_Z` σ *below* the
        running mean fails loudly instead of warning.
        """
        from repro.obs.monitor import RunningStats

        history = []
        if previous:
            history = [
                float(v)
                for v in previous.get(f"{metric}_history", [])
                if isinstance(v, (int, float))
            ]
            if not history and metric in previous:
                history = [float(previous[metric])]
        bench_results[f"{metric}_history"] = (history + [current])[-GUARD_HISTORY:]
        if not history:
            pytest.skip(f"no previous BENCH_encoder.json history for {metric}")
        prev = history[-1]
        ratio = current / prev
        if ratio < 0.75:
            pytest.fail(
                f"{metric} regressed {100 * (1 - ratio):.0f}%: "
                f"{current:,.2f} now vs {prev:,.2f} recorded"
            )
        stats = RunningStats()
        for v in history:
            stats.push(v)
        if stats.count >= GUARD_MIN_RUNS:
            z = stats.zscore(current)
            if z < -GUARD_Z:
                pytest.fail(
                    f"{metric} {current:,.2f} sits {-z:.1f}σ below the "
                    f"ledger mean {stats.mean:,.2f} over {stats.count} runs "
                    f"(gate: {GUARD_Z}σ)"
                )
        if ratio < 1.0:
            warnings.warn(
                f"{metric} down {100 * (1 - ratio):.1f}% vs last recorded "
                f"run ({current:,.2f} vs {prev:,.2f})",
                stacklevel=2,
            )

    def test_encoder_throughput_not_regressed(self, bench_results):
        """Welford-gate the scalar encoder rate against recorded history."""
        current = bench_results.get("encoder_events_per_sec")
        if current is None:
            pytest.skip("encoder throughput was not measured this session")
        self._welford_gate(
            bench_results,
            load_previous_bench(),
            "encoder_events_per_sec",
            float(current),
        )

    def test_aggregate_throughput_not_regressed(self, bench_results):
        """Welford-gate the columnar aggregate rate the same way."""
        current = bench_results.get("encode_events_per_sec_aggregate")
        if current is None:
            pytest.skip("aggregate throughput was not measured this session")
        self._welford_gate(
            bench_results,
            load_previous_bench(),
            "encode_events_per_sec_aggregate",
            float(current),
        )


class TestQueueBalance:
    def test_paper_rates_leave_queue_empty(self, benchmark):
        def run():
            q = FluidQueueModel(capacity=100_000, drain_rate=331_000.0)
            interval = 1.0 / 258.0
            total_stall = 0.0
            for i in range(5_000):
                total_stall += q.enqueue(i * interval)
            return q, total_stall

        q, stall = benchmark(run)
        assert stall == 0.0
        assert q.max_occupancy <= 1.0

    def test_mcb_recording_does_not_saturate_queue(self, benchmark):
        cfg = mcb.MCBConfig(nprocs=16, particles_per_rank=60, seed=7)

        def run_once():
            return RecordSession(
                mcb.build_program(cfg), nprocs=16, network_seed=1, keep_outcomes=False
            ).run()

        run = benchmark.pedantic(run_once, rounds=1, iterations=1)
        stats = run.controller.queue_stats()
        assert all(stall == 0.0 for stall, _ in stats.values())


class TestPiggybackOverhead:
    def test_piggyback_costs_about_a_percent(self, benchmark):
        """8-byte clock piggyback vs none, identical seeds: ~1% slowdown
        (paper: 1.18%)."""
        cfg = mcb.MCBConfig(nprocs=16, particles_per_rank=60, seed=7)
        program = mcb.build_program(cfg)
        # deterministic network: the runs differ *only* by the 8 piggyback
        # bytes, so the measurement is not drowned by reordering noise
        lat = LatencyModel(base=2e-6, per_byte=2e-8, jitter_mean=0.0)

        def run(piggyback):
            model = cdc_cost_model()
            model.enqueue_cost = 0.0  # isolate the piggyback effect
            model.piggyback_bytes = piggyback
            return RecordSession(
                program,
                nprocs=16,
                network_seed=1,
                cost_model=model,
                keep_outcomes=False,
                latency=lat,
            ).run().stats.virtual_time

        bare = run(0)
        piggy = benchmark.pedantic(run, args=(8,), rounds=1, iterations=1)
        overhead = piggy / bare - 1
        emit(
            "throughput_piggyback",
            render_table(
                "Section 6.2 — clock piggyback overhead",
                ["configuration", "virtual time (s)"],
                [("no piggyback", f"{bare:.6f}"), ("8-byte piggyback", f"{piggy:.6f}")],
                note=f"overhead {100 * overhead:.2f}% (paper: 1.18%)",
            ),
        )
        assert 0.0 <= overhead < 0.10
