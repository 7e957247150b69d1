"""CLI end-to-end: record / inspect / replay / compare."""

import os

import pytest

from repro.cli import main
from repro.replay.chunk_store import RecordArchive


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli") / "rec")
    code = main(
        [
            "record",
            "--workload", "synthetic",
            "--nprocs", "6",
            "--network-seed", "3",
            "--out", directory,
            "-p", "messages_per_rank=8",
            "-p", "fanout=2",
        ]
    )
    assert code == 0
    return directory


class TestRecord:
    def test_archive_written_with_metadata(self, record_dir):
        archive = RecordArchive.load(record_dir)
        assert archive.nprocs == 6
        assert archive.meta["workload"] == "synthetic"
        assert archive.meta["params"]["messages_per_rank"] == "8"
        assert archive.total_events() == 6 * 8 * 2

    def test_no_assist_flag(self, tmp_path, capsys):
        directory = str(tmp_path / "plain")
        main(
            [
                "record", "--workload", "synthetic", "--nprocs", "4",
                "--out", directory, "--no-assist", "-p", "messages_per_rank=4",
                "-p", "fanout=1",
            ]
        )
        archive = RecordArchive.load(directory)
        assert all(
            c.sender_sequence is None for c in archive.chunks(0)
        )

    def test_bad_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "record", "--workload", "mcb", "--nprocs", "4",
                    "--out", str(tmp_path / "x"), "-p", "bogus",
                ]
            )

    def test_unknown_workload_param_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            main(
                [
                    "record", "--workload", "mcb", "--nprocs", "4",
                    "--out", str(tmp_path / "x"), "-p", "nope=1",
                ]
            )

    @pytest.mark.parametrize("command", ["record", "trace"])
    def test_parallel_workers_flag_is_gone(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command, "--workload", "synthetic", "--nprocs", "4",
                    "--out", str(tmp_path / "x"), "--parallel-workers", "2",
                ]
            )
        assert exc.value.code == 2  # argparse's usage error
        assert "--parallel-workers" in capsys.readouterr().err


class TestReplay:
    def test_replay_with_verify(self, record_dir, capsys):
        code = main(
            ["replay", "--record", record_dir, "--network-seed", "9", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_replay_without_metadata_fails(self, tmp_path):
        archive = RecordArchive(nprocs=1)
        directory = str(tmp_path / "bare")
        archive.save(directory)
        with pytest.raises(SystemExit):
            main(["replay", "--record", directory])


class TestVerifyAndSalvage:
    def damaged_copy(self, record_dir, tmp_path):
        import shutil

        d = str(tmp_path / "damaged")
        shutil.copytree(record_dir, d)
        victim = None
        import os

        for name in sorted(os.listdir(d)):
            if name.startswith("rank-") and name.endswith(".cdc"):
                path = os.path.join(d, name)
                if os.path.getsize(path) > 16:
                    victim = path
                    break
        data = open(victim, "rb").read()
        open(victim, "wb").write(data[:-5])  # torn tail
        return d

    def test_verify_clean_archive(self, record_dir, capsys):
        assert main(["verify", "--record", record_dir]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "archive OK" in out

    def test_verify_damaged_archive_fails(self, record_dir, tmp_path, capsys):
        d = self.damaged_copy(record_dir, tmp_path)
        assert main(["verify", "--record", d]) == 1
        assert "truncated-tail" in capsys.readouterr().out

    def test_verify_not_an_archive(self, tmp_path, capsys):
        assert main(["verify", "--record", str(tmp_path)]) == 1
        assert "verify failed" in capsys.readouterr().out

    def test_salvage_writes_recovered_archive(self, record_dir, tmp_path, capsys):
        d = self.damaged_copy(record_dir, tmp_path)
        out_dir = str(tmp_path / "recovered")
        assert main(["salvage", "--record", d, "--out", out_dir]) == 2
        assert "salvaged archive written" in capsys.readouterr().out
        # the recovered archive is clean and strictly loadable
        assert main(["verify", "--record", out_dir]) == 0

    def test_replay_strict_fails_on_damage(self, record_dir, tmp_path):
        from repro.errors import ArchiveCorruptionError

        d = self.damaged_copy(record_dir, tmp_path)
        with pytest.raises(ArchiveCorruptionError):
            main(["replay", "--record", d])

    def test_replay_salvage_replays_prefix(self, record_dir, tmp_path, capsys):
        d = self.damaged_copy(record_dir, tmp_path)
        assert main(["replay", "--record", d, "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "record ends early" in out or "replayed" in out


class TestInspect:
    def test_summary_table(self, record_dir, capsys):
        assert main(["inspect", "--record", record_dir]) == 0
        out = capsys.readouterr().out
        assert "receive events" in out
        assert "synthetic:" in out or "synthetic" in out


class TestCompare:
    def test_method_table(self, capsys):
        code = main(
            [
                "compare", "--workload", "synthetic", "--nprocs", "5",
                "-p", "messages_per_rank=6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "w/o Compression" in out
        assert "CDC vs gzip" in out


class TestTraceExportAndTranscode:
    def test_record_with_trace_then_transcode(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(
            [
                "record", "--workload", "synthetic", "--nprocs", "5",
                "--out", str(tmp_path / "rec"),
                "-p", "messages_per_rank=6",
                "--trace-out", trace,
            ]
        )
        code = main(["transcode", "--trace", trace])
        assert code == 0
        out = capsys.readouterr().out
        assert "bytes/event" in out

    def test_trace_roundtrips_outcomes(self, tmp_path):
        from repro.core.trace_io import read_trace
        from repro.replay import RecordSession
        from repro.workloads import make_workload

        trace = str(tmp_path / "trace.jsonl")
        main(
            [
                "record", "--workload", "synthetic", "--nprocs", "4",
                "--out", str(tmp_path / "rec"),
                "-p", "messages_per_rank=5", "--network-seed", "8",
                "--trace-out", trace,
            ]
        )
        program, _ = make_workload("synthetic", 4, messages_per_rank="5")
        rerun = RecordSession(program, nprocs=4, network_seed=8).run()
        assert read_trace(trace) == rerun.outcomes


class TestStats:
    def test_stats_tables(self, record_dir, capsys):
        assert main(["stats", record_dir]) == 0
        out = capsys.readouterr().out
        assert "per-rank storage" in out
        assert "compression stages" in out
        assert "CDC table breakdown" in out
        assert "permutation rates per callsite" in out
        assert "gzip contributes" in out

    def test_stats_ignores_legacy_encoder_health_meta(
        self, record_dir, tmp_path, capsys
    ):
        """Manifests written before the encoder pools were removed may
        carry ``meta["encoder_health"]``: they load, stats ignores it."""
        import json
        import shutil

        legacy = str(tmp_path / "legacy")
        shutil.copytree(record_dir, legacy)
        manifest_path = os.path.join(legacy, "MANIFEST")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["meta"]["encoder_health"] = {
            "backend_requested": "process", "backend_final": "thread",
            "batches": 16, "pool_rebuilds": 1, "batch_retries": 1,
            "downgrades": [["process", "thread", "worker-lost"]],
            "quarantined_batches": [],
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert main(["stats", legacy]) == 0
        out = capsys.readouterr().out
        assert "per-rank storage" in out
        assert "encoder" not in out and "worker-lost" not in out
        assert RecordArchive.load(legacy).meta["encoder_health"]["batches"] == 16

    def test_stats_rank_truncation(self, record_dir, capsys):
        assert main(["stats", record_dir, "--ranks", "2"]) == 0
        assert "…" in capsys.readouterr().out

    def test_stats_per_chunk_table(self, record_dir, capsys):
        assert main(["stats", record_dir, "--chunks"]) == 0
        out = capsys.readouterr().out
        assert "per-chunk breakdown" in out


class TestReplayVerbose:
    def test_verbose_prints_run_stats(self, record_dir, capsys):
        code = main(["replay", "--record", record_dir, "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run stats [replay]" in out
        assert "receive events" in out
        assert "span events" in out

    def test_quiet_replay_has_no_run_stats(self, record_dir, capsys):
        assert main(["replay", "--record", record_dir]) == 0
        assert "run stats" not in capsys.readouterr().out


class TestTimeline:
    def test_merged_timeline_with_flow_arrows(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = str(tmp_path / "timeline.json")
        metrics = str(tmp_path / "timeline-metrics.jsonl")
        code = main(
            [
                "timeline", "--workload", "synthetic", "--nprocs", "8",
                "-p", "seed=3", "-p", "messages_per_rank=8", "-p", "fanout=2",
                "--out", out_path, "--metrics-out", metrics,
            ]
        )
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["runs"] == ["record", "replay"]
        assert trace["otherData"]["flows"] > 0
        out = capsys.readouterr().out
        assert "flow arrows" in out
        assert "100.0% correlated" in out
        assert "perfetto" in out.lower()

    def test_no_replay_traces_record_only(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "timeline.json")
        code = main(
            [
                "timeline", "--workload", "synthetic", "--nprocs", "4",
                "-p", "messages_per_rank=4", "--out", out_path, "--no-replay",
            ]
        )
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["otherData"]["runs"] == ["record"]


class TestMonitor:
    def stream_file(self, tmp_path):
        from repro.replay import RecordSession
        from repro.workloads import make_workload

        path = str(tmp_path / "metrics.jsonl")
        program, _ = make_workload(
            "synthetic", 4, messages_per_rank="40", fanout="2"
        )
        RecordSession(
            program, nprocs=4, network_seed=1, chunk_events=32,
            metrics_stream=path, metrics_interval=0.005,
        ).run()
        return path

    def test_renders_finished_stream(self, tmp_path, capsys):
        path = self.stream_file(tmp_path)
        assert main(["monitor", path]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out
        assert "epoch progress" in out
        assert "stream ended" in out

    def test_follow_exits_on_end_line(self, tmp_path, capsys):
        path = self.stream_file(tmp_path)
        assert main(["monitor", path, "--follow", "--interval", "0.01"]) == 0
        assert "[finished]" in capsys.readouterr().out

    def test_follow_timeout_on_stuck_stream(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "stuck.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "meta", "registry": "x",
                                 "enabled": True}) + "\n")
        code = main(
            ["monitor", path, "--follow", "--interval", "0.01",
             "--timeout", "0.05"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "gave up" in out

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["monitor", str(tmp_path / "nope.jsonl")])

    def test_metrics_file_is_required(self):
        with pytest.raises(SystemExit) as info:
            main(["monitor"])
        assert info.value.code == 2  # argparse usage error

    def test_closes_the_metrics_file(self, tmp_path, monkeypatch):
        import builtins

        import repro.cli

        path = self.stream_file(tmp_path)
        opened = []

        def spy(*args, **kwargs):
            fh = builtins.open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(repro.cli, "open", spy, raising=False)
        assert main(["monitor", path]) == 0
        assert opened and all(fh.closed for fh in opened)


class TestStatsSalvage:
    """Regression: ``repro stats`` on crash-truncated archives (the
    directory has frames but no MANIFEST, and salvage can leave the last
    rank with zero recovered chunks)."""

    @pytest.fixture(scope="class")
    def truncated_dir(self, tmp_path_factory):
        from repro.replay import RecordSession
        from repro.replay.durable_store import RetryPolicy
        from repro.testing import FaultInjector, FaultPlan, InjectedCrash
        from repro.workloads import make_workload

        directory = str(tmp_path_factory.mktemp("stats") / "truncated")
        program, _ = make_workload(
            "synthetic", 4, seed="3", messages_per_rank="40", fanout="2"
        )
        injector = FaultInjector(FaultPlan(crash_after_bytes=150))
        session = RecordSession(
            program, nprocs=4, network_seed=1, chunk_events=64,
            store_dir=directory, store_opener=injector.open,
            store_fsync=False, store_retry=RetryPolicy(attempts=2, base_delay=0.0),
        )
        with pytest.raises(InjectedCrash):
            session.run()
        return directory

    def test_strict_stats_fails_with_salvage_hint(self, truncated_dir):
        with pytest.raises(SystemExit) as info:
            main(["stats", truncated_dir])
        assert "--salvage" in str(info.value)

    def test_salvage_stats_renders_with_empty_last_rank(
        self, truncated_dir, capsys
    ):
        from repro.replay.durable_store import load_archive

        archive, _ = load_archive(truncated_dir, mode="salvage")
        # the regression scenario: at least one rank recovered nothing
        assert any(
            not archive.chunks(r) for r in range(archive.nprocs)
        )
        assert main(["stats", truncated_dir, "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "per-rank storage" in out
        assert "compression stages" in out
        assert "permutation rates per callsite" in out

    def test_salvage_stats_on_clean_archive(self, record_dir, capsys):
        assert main(["stats", record_dir, "--salvage"]) == 0
        assert "per-rank storage" in capsys.readouterr().out

    def test_stats_metrics_health_section(self, record_dir, tmp_path, capsys):
        import json

        metrics = str(tmp_path / "metrics.jsonl")
        lines = [
            {"type": "meta", "registry": "t", "enabled": True,
             "dropped_events": 7},
            {"type": "counter", "name": "hot.counter", "value": 5,
             "saturated": True},
        ]
        with open(metrics, "w", encoding="utf-8") as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
        assert main(["stats", record_dir, "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "telemetry health" in out
        assert "trace is truncated" in out
        assert "hot.counter" in out


class TestInspectSalvage:
    """Regression: ``repro inspect`` on crash-truncated no-MANIFEST archives
    must summarize the recoverable prefix instead of raising."""

    @pytest.fixture(scope="class")
    def truncated_dir(self, tmp_path_factory):
        from repro.replay import RecordSession
        from repro.replay.durable_store import RetryPolicy
        from repro.testing import FaultInjector, FaultPlan, InjectedCrash
        from repro.workloads import make_workload

        directory = str(tmp_path_factory.mktemp("inspect") / "truncated")
        program, _ = make_workload(
            "synthetic", 4, seed="3", messages_per_rank="40", fanout="2"
        )
        injector = FaultInjector(FaultPlan(crash_after_bytes=200))
        session = RecordSession(
            program, nprocs=4, network_seed=1, chunk_events=64,
            store_dir=directory, store_opener=injector.open,
            store_fsync=False, store_retry=RetryPolicy(attempts=2, base_delay=0.0),
        )
        with pytest.raises(InjectedCrash):
            session.run()
        return directory

    def test_strict_inspect_fails_with_salvage_hint(self, truncated_dir):
        with pytest.raises(SystemExit) as info:
            main(["inspect", "--record", truncated_dir])
        assert "--salvage" in str(info.value)

    def test_salvage_inspect_summarizes_prefix(self, truncated_dir, capsys):
        assert main(["inspect", "--record", truncated_dir, "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "recovery report" in out or "truncated" in out
        assert "receive events" in out
        assert "callsite profiles" in out

    def test_salvage_inspect_on_clean_archive(self, record_dir, capsys):
        assert main(["inspect", "--record", record_dir, "--salvage"]) == 0
        assert "receive events" in capsys.readouterr().out


class TestDiffAndRuns:
    @pytest.fixture(scope="class")
    def two_seed_setup(self, tmp_path_factory):
        """Two recorded seeds + one replay, all ledgered."""
        base = tmp_path_factory.mktemp("diff")
        ledger = str(base / "runs.jsonl")
        dirs = {}
        for name, seed in (("a", 3), ("b", 11)):
            dirs[name] = str(base / name)
            assert main(
                [
                    "record", "--workload", "synthetic", "--nprocs", "6",
                    "--network-seed", str(seed), "--out", dirs[name],
                    "-p", "messages_per_rank=8", "-p", "fanout=2",
                    "--ledger", ledger,
                ]
            ) == 0
        assert main(
            ["replay", "--record", dirs["a"], "--network-seed", "9",
             "--ledger", ledger]
        ) == 0
        return dirs, ledger

    def test_diff_two_seeds_localizes_divergence(self, two_seed_setup, capsys):
        dirs, _ = two_seed_setup
        assert main(["diff", dirs["a"], dirs["b"]]) == 0
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert "nondeterminism profile" in out

    def test_diff_is_deterministic_across_invocations(
        self, two_seed_setup, tmp_path, capsys
    ):
        import json

        dirs, _ = two_seed_setup
        firsts = []
        for i in range(2):
            out = str(tmp_path / f"div{i}.json")
            assert main(["diff", dirs["a"], dirs["b"], "--out", out]) == 0
            with open(out, encoding="utf-8") as fh:
                firsts.append(json.load(fh)["first"])
        capsys.readouterr()
        assert firsts[0] == firsts[1]
        assert {"rank", "callsite", "sender", "clock"} <= firsts[0].keys()

    def test_diff_against_self_is_identical(self, two_seed_setup, capsys):
        dirs, _ = two_seed_setup
        assert main(["diff", dirs["a"], dirs["a"]]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_says_how_many_records_it_replayed(
        self, two_seed_setup, tmp_path, capsys
    ):
        from repro.core.trace_io import save_trace
        from repro.replay import ReplaySession
        from repro.workloads import make_workload

        dirs, ledger = two_seed_setup
        assert main(["diff", dirs["a"], dirs["b"]]) == 0
        assert "2 operands, 2 distinct records: replayed twice" in capsys.readouterr().out
        # one record under two names: Theorem 2 makes the second replay redundant
        assert main(["diff", "r0001", dirs["a"], "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "2 operands, 1 distinct record: replayed once (Theorem 2)" in out
        assert "identical" in out
        # a trace is compared as it is: only the record is replayed
        trace = str(tmp_path / "a.trace.jsonl")
        program, _ = make_workload("synthetic", 6, messages_per_rank=8, fanout=2)
        save_trace(ReplaySession(program, dirs["a"]).run().outcomes, trace)
        assert main(["diff", trace, dirs["a"]]) == 0
        out = capsys.readouterr().out
        assert "2 operands, 1 distinct record: replayed once\n" in out
        assert "identical" in out
        assert main(["diff", trace, trace]) == 0
        assert "2 operands, 0 distinct records: nothing replayed" in capsys.readouterr().out

    def test_diff_json_and_timeline_validate(
        self, two_seed_setup, tmp_path, capsys
    ):
        import json

        from repro.analysis.divergence import validate_divergence_json
        from repro.obs import validate_chrome_trace

        dirs, _ = two_seed_setup
        out = str(tmp_path / "div.json")
        timeline = str(tmp_path / "div_tl.json")
        assert main(
            ["diff", dirs["a"], dirs["b"], "--out", out, "--timeline", timeline]
        ) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            assert validate_divergence_json(json.load(fh)) == []
        with open(timeline, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["flows"] > 0

    def test_diff_by_ledger_run_ids(self, two_seed_setup, capsys):
        dirs, ledger = two_seed_setup
        assert main(["diff", "r0001", "r0002", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "r0001" in out and "r0002" in out

    def test_diff_unknown_run_id_fails(self, two_seed_setup):
        _, ledger = two_seed_setup
        with pytest.raises(SystemExit):
            main(["diff", "r9999", "r0001", "--ledger", ledger])

    def test_diff_unresolvable_operand_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["diff", str(tmp_path / "nope"), str(tmp_path / "nada")])

    def test_runs_list(self, two_seed_setup, capsys):
        _, ledger = two_seed_setup
        assert main(["runs", "list", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "run ledger" in out
        assert "r0001" in out and "r0003" in out
        assert "record" in out and "replay" in out

    def test_runs_show(self, two_seed_setup, capsys):
        _, ledger = two_seed_setup
        assert main(["runs", "show", "r0002", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "run r0002" in out
        assert "compression rate" in out

    def test_runs_show_unknown_fails(self, two_seed_setup):
        _, ledger = two_seed_setup
        with pytest.raises(SystemExit):
            main(["runs", "show", "r9999", "--ledger", ledger])

    def test_record_run_id_names_the_ledger_entry(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(
            [
                "record", "--workload", "synthetic", "--nprocs", "4",
                "--network-seed", "2", "--out", str(tmp_path / "rec"),
                "-p", "messages_per_rank=6", "-p", "fanout=1",
                "--ledger", ledger, "--run-id", "nightly-7",
            ]
        ) == 0
        assert f"ledger: {ledger} run nightly-7" in capsys.readouterr().out
        assert main(["runs", "show", "nightly-7", "--ledger", ledger]) == 0
        assert "run nightly-7" in capsys.readouterr().out

    def test_runs_trend(self, two_seed_setup, capsys):
        _, ledger = two_seed_setup
        assert main(["runs", "trend", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "run trends" in out
        assert "bytes_per_event" in out


class TestTraceTelemetry:
    def test_trace_exports_valid_artifacts(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace, validate_metrics_lines

        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.jsonl")
        code = main(
            [
                "trace", "--workload", "synthetic", "--nprocs", "4",
                "-p", "messages_per_rank=5",
                "--out", trace, "--metrics-out", metrics, "--replay",
            ]
        )
        assert code == 0
        with open(trace, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert validate_chrome_trace(obj) == []
        names = {ev["name"] for ev in obj["traceEvents"]}
        assert "session.record" in names
        assert "session.replay" in names
        with open(metrics, encoding="utf-8") as fh:
            assert validate_metrics_lines(fh.read().splitlines()) == []
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        assert "run stats [record]" in out


class TestTrendSparkline:
    @pytest.fixture(scope="class")
    def ledgered(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("spark")
        ledger = str(base / "ledger.jsonl")
        for seed in (1, 2, 3):
            assert main(
                [
                    "record", "--workload", "synthetic", "--nprocs", "4",
                    "--network-seed", str(seed), "--out", str(base / f"r{seed}"),
                    "-p", "messages_per_rank=6", "-p", "fanout=1",
                    "--ledger", ledger,
                ]
            ) == 0
        return ledger

    def test_wide_sparkline_rendering(self, ledgered, capsys):
        assert main(
            ["runs", "trend", "--ledger", ledgered, "--sparkline", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "bytes_per_event (n=3):" in out
        assert "min " in out and "max " in out and "latest " in out

    def test_default_width_when_bare_flag(self, ledgered, capsys):
        assert main(["runs", "trend", "--ledger", ledgered, "--sparkline"]) == 0
        out = capsys.readouterr().out
        assert "bytes_per_event (n=3):" in out

    def test_compact_form_unchanged_without_flag(self, ledgered, capsys):
        assert main(["runs", "trend", "--ledger", ledgered]) == 0
        out = capsys.readouterr().out
        assert "(n=3)" in out
        assert "min " not in out


class TestProfileSample:
    def test_sample_mode_writes_valid_exports(self, tmp_path, capsys):
        import json

        from repro.obs import validate_collapsed_stacks, validate_speedscope

        folded = str(tmp_path / "p.folded")
        speedscope = str(tmp_path / "p.speedscope.json")
        assert main(
            [
                "profile", "--workload", "mcb", "--nprocs", "6",
                "--sample", "--hz", "400", "--top", "5",
                "--folded-out", folded, "--speedscope-out", speedscope,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sampling profile" in out
        assert validate_collapsed_stacks(
            open(folded, encoding="utf-8").read().splitlines()
        ) == []
        with open(speedscope, encoding="utf-8") as fh:
            assert validate_speedscope(json.load(fh)) == []

    def test_sample_replay_mode(self, capsys):
        assert main(
            [
                "profile", "--workload", "synthetic", "--nprocs", "4",
                "--mode", "replay", "--sample", "--hz", "400",
                "-p", "messages_per_rank=20", "-p", "fanout=2",
            ]
        ) == 0
        assert "replay of synthetic" in capsys.readouterr().out


class TestDashIsGone:
    def test_dash_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dash", "--out", str(tmp_path / "x.html")])
        assert exc.value.code == 2  # argparse's usage error
        assert "invalid choice: 'dash'" in capsys.readouterr().err
        assert not (tmp_path / "x.html").exists()


class TestTimelineStrict:
    ARGS = [
        "timeline", "--workload", "synthetic", "--nprocs", "4",
        "-p", "messages_per_rank=4", "-p", "fanout=1",
    ]

    def test_strict_passes_on_fully_correlated_run(self, tmp_path, capsys):
        out_path = str(tmp_path / "timeline.json")
        assert main(self.ARGS + ["--out", out_path, "--strict"]) == 0
        assert "⚠ strict" not in capsys.readouterr().out

    def test_strict_fails_when_receives_cannot_correlate(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.causal import ColumnarFlowRecorder

        # drop every send capture: receives can no longer correlate
        monkeypatch.setattr(
            ColumnarFlowRecorder, "on_send", lambda self, *a, **k: None
        )
        out_path = str(tmp_path / "timeline.json")
        assert main(self.ARGS + ["--out", out_path, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "strict" in out
        assert "0.0% of receives" in out

    def test_strict_fails_on_a_duplicate_send_identity(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.causal import ColumnarFlowRecorder

        on_send = ColumnarFlowRecorder.on_send

        def twice(self, *args):  # every send posted twice under one identity
            on_send(self, *args)
            on_send(self, *args)

        monkeypatch.setattr(ColumnarFlowRecorder, "on_send", twice)
        out_path = str(tmp_path / "timeline.json")
        assert main(self.ARGS + ["--out", out_path]) == 0
        assert main(self.ARGS + ["--out", out_path, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "100.0% correlated" in out
        assert "16 duplicate send identities" in out  # describe()
        assert "⚠ strict: record correlated 100.0% of receives (16/16) and repeated 16" in out

    def test_without_strict_same_run_still_exits_zero(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.obs.causal import ColumnarFlowRecorder

        monkeypatch.setattr(
            ColumnarFlowRecorder, "on_send", lambda self, *a, **k: None
        )
        out_path = str(tmp_path / "timeline.json")
        assert main(self.ARGS + ["--out", out_path]) == 0
        capsys.readouterr()


class TestExplain:
    @pytest.fixture(scope="class")
    def explained(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("explain")
        ledger = str(base / "runs.jsonl")
        archive = str(base / "rec")
        assert main(
            [
                "record", "--workload", "synthetic", "--nprocs", "6",
                "--network-seed", "5", "--out", archive,
                "-p", "messages_per_rank=8", "-p", "fanout=2",
                "--ledger", ledger,
            ]
        ) == 0
        return archive, ledger

    def test_blame_report_renders(self, explained, capsys):
        archive, _ = explained
        assert main(["explain", archive]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "blame by rank" in out
        assert "blame by callsite" in out
        assert "read-only replay" in out

    def test_json_export_passes_schema(self, explained, tmp_path, capsys):
        import json

        from repro.analysis.critical_path import validate_explain_json

        archive, _ = explained
        out = str(tmp_path / "explain.json")
        assert main(["explain", archive, "--json", out]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert validate_explain_json(obj) == []
        assert obj["receives"] > 0
        assert obj["match_rate"] == 1.0

    def test_timeline_highlight_validates(self, explained, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        archive, _ = explained
        out = str(tmp_path / "explain_tl.json")
        assert main(["explain", archive, "--timeline", out]) == 0
        assert "critical-path" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["critical_path_edges"] > 0
        assert any(
            ev.get("cat") == "critical_path" for ev in trace["traceEvents"]
        )

    def test_ledger_run_id_resolves_and_appends_entry(
        self, explained, capsys
    ):
        from repro.obs.ledger import RunLedger

        _, ledger = explained
        assert main(["explain", "r0001", "--ledger", ledger]) == 0
        capsys.readouterr()
        entries = RunLedger(ledger).entries()
        assert entries[-1].mode == "explain"
        assert entries[-1].critical_path_share is not None
        assert 0.0 <= entries[-1].critical_path_share <= 1.0
        assert entries[-1].max_slack_us is not None
        # record/replay entries never carry explain metrics
        assert entries[0].critical_path_share is None

    def test_unknown_run_id_fails(self, explained):
        _, ledger = explained
        with pytest.raises(SystemExit):
            main(["explain", "r9999", "--ledger", ledger])

    def test_unresolvable_source_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explain", str(tmp_path / "nope")])
