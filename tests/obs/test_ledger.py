"""Persistent run ledger (obs/ledger.py): appends, trends, session wiring."""

import json

import pytest

from repro.obs.ledger import (
    LEDGER_FORMAT,
    LEDGER_VERSION,
    LedgerEntry,
    RunLedger,
    entry_from_result,
    render_run,
    render_runs,
    render_trend,
    trend_report,
    validate_ledger_lines,
)
from repro.replay.session import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 4
PARAMS = {"messages_per_rank": 6, "fanout": 2}


def _entry(run_id="", **over):
    base = dict(
        run_id=run_id,
        mode="record",
        workload="synthetic",
        nprocs=4,
        network_seed=1,
        events=100,
        chunks=4,
        raw_bytes=2000,
        cdc_bytes=300,
        stored_bytes=250,
        permutation_pct=0.25,
        wall_seconds=0.5,
    )
    base.update(over)
    return LedgerEntry(**base)


def _session(seed, **kwargs):
    program, _ = make_workload("synthetic", NPROCS, **PARAMS)
    return RecordSession(program, nprocs=NPROCS, network_seed=seed, **kwargs)


class TestAppendAndRead:
    def test_sequential_run_ids(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        e1 = ledger.append(_entry())
        e2 = ledger.append(_entry())
        assert (e1.run_id, e2.run_id) == ("r0001", "r0002")
        assert [e.run_id for e in ledger.entries()] == ["r0001", "r0002"]

    def test_explicit_run_id_kept(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        assert ledger.append(_entry(run_id="nightly-7")).run_id == "nightly-7"
        assert ledger.find("nightly-7").workload == "synthetic"

    def test_roundtrip_is_lossless(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        original = ledger.append(
            _entry(archive="/tmp/rec", health={"stalled": True}, time=123.0)
        )
        [read] = ledger.entries()
        assert read == original
        assert not read.healthy

    def test_missing_file_is_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "absent.jsonl")).entries() == []

    def test_find_unknown_raises(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        with pytest.raises(KeyError):
            ledger.find("r9999")

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        ledger.append(_entry())
        ledger.append(_entry())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"format": "cdc-ledger", "run_id": "r00')  # crash mid-line
        assert [e.run_id for e in ledger.entries()] == ["r0001", "r0002"]
        # and the next append still lands on a fresh line id
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert ledger.append(_entry()).run_id == "r0003"

    def test_derived_metrics(self):
        e = _entry()
        assert e.bytes_per_event == pytest.approx(2.5)
        assert e.events_per_second == pytest.approx(200.0)
        assert e.compression_rate == pytest.approx(8.0)
        assert e.healthy


class TestValidation:
    def test_clean_lines_pass(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        ledger.append(_entry())
        ledger.append(_entry())
        with open(path, encoding="utf-8") as fh:
            assert validate_ledger_lines(fh.read().splitlines()) == []

    def test_problems_reported(self):
        good = json.dumps(_entry(run_id="r0001").to_json())
        bad_json = "{not json"
        wrong_format = json.dumps({"format": "nope"})
        wrong_version = json.dumps(
            {**_entry(run_id="r0002").to_json(), "version": LEDGER_VERSION + 1}
        )
        missing = json.dumps({"format": LEDGER_FORMAT, "version": LEDGER_VERSION})
        dup = good
        problems = validate_ledger_lines(
            [good, bad_json, wrong_format, wrong_version, missing, dup]
        )
        text = "\n".join(problems)
        assert "bad JSON" in text
        assert "format" in text
        assert "version" in text
        assert "must be" in text
        assert "duplicate run_id" in text


class TestEntryFromResult:
    def test_record_result_summary(self, tmp_path):
        store = str(tmp_path / "rec")
        meta = {
            "workload": "synthetic",
            "nprocs": NPROCS,
            "network_seed": 3,
            "params": PARAMS,
        }
        result = _session(3, store_dir=store, meta=meta).run()
        entry = entry_from_result(
            result, wall_seconds=1.0, archive_path=store, clock=lambda: 42.0
        )
        assert entry.mode == "record"
        assert entry.workload == "synthetic"
        assert entry.network_seed == 3
        assert entry.events == result.total_receive_events()
        assert entry.chunks == sum(
            len(result.archive.chunks(r)) for r in range(NPROCS)
        )
        assert entry.stored_bytes == result.archive.total_bytes()
        assert 0 < entry.cdc_bytes <= entry.raw_bytes
        assert 0.0 <= entry.permutation_pct <= 1.0
        assert entry.archive == store
        assert entry.time == 42.0
        assert entry.healthy

    def test_salvaged_replay_flags_health(self, tmp_path):
        from repro.replay.durable_store import RetryPolicy
        from tests.faults import FaultInjector, FaultPlan, InjectedCrash

        store = str(tmp_path / "truncated")
        injector = FaultInjector(FaultPlan(crash_after_bytes=200))
        big = {"messages_per_rank": 40, "fanout": 2}
        program, _ = make_workload("synthetic", NPROCS, **big)
        session = RecordSession(
            program,
            nprocs=NPROCS,
            network_seed=1,
            chunk_events=64,
            store_dir=store,
            store_opener=injector.open,
            store_fsync=False,
            store_retry=RetryPolicy(attempts=2, base_delay=0.0),
        )
        with pytest.raises(InjectedCrash):
            session.run()
        result = ReplaySession(program, store, mode="salvage").run()
        entry = entry_from_result(result, wall_seconds=0.1)
        assert entry.health.get("salvaged_archive") is True
        if result.truncated_at is not None:
            assert entry.health["truncated_at"] == list(result.truncated_at)
        assert not entry.healthy


class TestSessionWiring:
    def test_record_and_replay_append_lines(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        store = str(tmp_path / "rec")
        meta = {
            "workload": "synthetic",
            "nprocs": NPROCS,
            "network_seed": 1,
            "params": PARAMS,
        }
        rec = _session(1, store_dir=store, meta=meta, ledger=path).run()
        assert rec.ledger_entry is not None
        assert rec.ledger_entry.run_id == "r0001"
        program, _ = make_workload("synthetic", NPROCS, **PARAMS)
        rep = ReplaySession(program, store, network_seed=7, ledger=path).run()
        assert rep.ledger_entry.run_id == "r0002"
        assert _session(2, ledger=path).run().ledger_entry.run_id == "r0003"
        entries = RunLedger(path).entries()
        assert [e.mode for e in entries] == ["record", "replay", "record"]
        assert entries[1].archive == store
        assert entries[0].events == entries[1].events
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        assert validate_ledger_lines(lines) == []

    def test_ledger_object_and_custom_run_id(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        result = _session(1, ledger=ledger, run_id="ci-123").run()
        assert result.ledger_entry.run_id == "ci-123"
        assert ledger.find("ci-123").mode == "record"

    def test_no_ledger_no_entry(self):
        assert _session(1).run().ledger_entry is None


class TestTrend:
    def history(self, values, metric="stored_bytes"):
        return [
            _entry(run_id=f"r{i:04d}", **{metric: v})
            for i, v in enumerate(values, start=1)
        ]

    def test_no_flags_on_stable_history(self):
        entries = self.history([250, 251, 249, 250, 252, 250])
        flags, series = trend_report(entries)
        assert flags == []
        group = ("synthetic", "record", 4)
        assert len(series[group]["bytes_per_event"]) == len(entries)

    def test_compression_regression_flags(self):
        entries = self.history([250, 251, 249, 250, 252, 1500])
        flags, _ = trend_report(entries)
        assert any(
            f.metric == "bytes_per_event" and f.run_id == "r0006" for f in flags
        )
        [flag] = [f for f in flags if f.metric == "bytes_per_event"]
        assert flag.zscore > 0
        assert "r0006" in flag.describe()

    def test_improvement_does_not_flag(self):
        entries = self.history([250, 251, 249, 250, 252, 50])
        flags, _ = trend_report(entries)
        assert not any(f.metric == "bytes_per_event" for f in flags)

    def test_a_slow_run_never_flags_a_bytes_regression_does(self):
        # wall time is the machine's, not the code's: r0006 is 60x slower
        # than its group and must stay silent; r0007 stores 6x the bytes.
        walls = [0.5, 0.51, 0.49, 0.5, 0.52, 30.0, 0.5]
        stored = [250, 251, 249, 250, 252, 250, 1500]
        entries = [
            _entry(run_id=f"r{i:04d}", wall_seconds=w, stored_bytes=b)
            for i, (w, b) in enumerate(zip(walls, stored), start=1)
        ]
        flags, series = trend_report(entries)
        assert [(f.run_id, f.metric) for f in flags] == [("r0007", "bytes_per_event")]
        assert set(series[("synthetic", "record", 4)]) == {"bytes_per_event"}

    def test_short_history_never_flags(self):
        entries = self.history([250, 9999])
        assert trend_report(entries)[0] == []

    def test_groups_do_not_share_baselines(self):
        stable = self.history([250] * 5)
        other = [
            _entry(run_id="x1", nprocs=8, stored_bytes=90000),
        ]
        flags, series = trend_report(stable + other)
        assert flags == []  # the 8-rank run has no history of its own
        assert len(series) == 2


class TestRendering:
    def test_render_runs_table(self, tmp_path):
        entries = [
            _entry(run_id="r0001"),
            _entry(run_id="r0002", health={"stalled": True}),
        ]
        text = render_runs(entries)
        assert "r0001" in text and "r0002" in text
        assert "⚠ stalled" in text
        assert "run ledger (2 run(s))" in text

    def test_render_runs_limit_note(self):
        entries = [_entry(run_id=f"r{i:04d}") for i in range(1, 6)]
        text = render_runs(entries, limit=2)
        assert "3 earlier run(s) not shown" in text
        assert "r0001" not in text

    def test_render_run_detail(self):
        text = render_run(_entry(run_id="r0007", archive="/tmp/rec"))
        assert "run r0007" in text
        assert "/tmp/rec" in text
        assert "compression rate" in text

    def test_render_trend(self):
        entries = [
            _entry(run_id=f"r{i:04d}", stored_bytes=s)
            for i, s in enumerate([250, 251, 249, 250, 252, 1500], start=1)
        ]
        text = render_trend(entries)
        assert "bytes_per_event" in text
        assert "regressions" in text
        assert "r0006" in text

    def test_render_trend_empty(self):
        assert "empty" in render_trend([])

    def test_render_trend_wide_sparkline(self):
        entries = [
            _entry(run_id=f"r{i:04d}", stored_bytes=s)
            for i, s in enumerate([250, 251, 249, 250, 252], start=1)
        ]
        text = render_trend(entries, sparkline_width=40)
        assert "bytes_per_event (n=5):" in text
        assert "min " in text and "max " in text and "latest " in text
        # one sparkline cell per run (width is a cap, not a stretch)
        lines = text.splitlines()
        chart = lines[lines.index("  bytes_per_event (n=5):") + 1]
        assert len(chart.strip()) == 5
