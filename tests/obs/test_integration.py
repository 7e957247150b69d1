"""Telemetry wired through real record/replay sessions.

Covers the session plumbing end to end: ``telemetry=True`` yields a
populated :class:`RunStats`, the parallel encoder reports consistently
from worker threads, replay metrics land in the shared registry, and the
default (disabled) path stays a strict no-op that never perturbs the
process-global registry.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_REGISTRY,
    NullRegistry,
    TelemetryRegistry,
    get_registry,
    use_registry,
)
from repro.replay import RecordSession, ReplaySession
from repro.replay.diagnostics import telemetry_snapshot
from repro.workloads import make_workload

NPROCS = 5


@pytest.fixture
def program():
    prog, _ = make_workload("synthetic", NPROCS, messages_per_rank="6", fanout="2")
    return prog


def record(program, **kwargs):
    return RecordSession(
        program, nprocs=NPROCS, network_seed=3, chunk_events=16, **kwargs
    ).run()


class TestRecordTelemetry:
    def test_run_stats_populated(self, program):
        before = get_registry()
        result = record(program, telemetry=True)
        assert get_registry() is before  # run never leaks its registry

        stats = result.run_stats
        assert stats is not None
        assert stats.mode == "record"
        assert stats.nprocs == NPROCS
        assert isinstance(result.registry, TelemetryRegistry)
        assert stats.receive_events == result.total_receive_events() > 0
        assert stats.chunks > 0
        assert stats.stored_bytes > 0
        assert stats.counter("sim.events") > 0
        assert stats.counter("record.flushes") > 0
        assert stats.counter("format.cdc.serialize_calls") > 0
        assert stats.span_events > 0
        assert stats.dropped_events == 0
        assert "run stats [record]" in stats.render()

    def test_explicit_registry_is_used_as_is(self, program):
        registry = TelemetryRegistry()
        result = record(program, telemetry=registry)
        assert result.registry is registry
        assert registry.counters()["record.flushes"] > 0

    def test_default_is_disabled_noop(self, program):
        result = record(program)
        assert result.run_stats is None
        assert result.registry is NULL_REGISTRY
        assert get_registry() is NULL_REGISTRY or not get_registry().enabled

    def test_telemetry_false_forces_null_even_with_active_registry(self, program):
        with use_registry(TelemetryRegistry()) as ambient:
            result = record(program, telemetry=False)
            assert isinstance(result.registry, NullRegistry)
            assert result.run_stats is None
            assert ambient.counters().get("record.flushes", 0) == 0

    def test_disabled_run_matches_enabled_run(self, program, tmp_path):
        plain = record(program)
        traced = record(program, telemetry=True)
        assert plain.outcomes == traced.outcomes

        # watching a run never changes its record: same archive bytes
        record(program, store_dir=str(tmp_path / "off"), telemetry=False)
        record(
            program,
            store_dir=str(tmp_path / "on"),
            telemetry=True,
            metrics_stream=str(tmp_path / "metrics.jsonl"),
        )
        names = sorted(p.name for p in (tmp_path / "off").iterdir())
        assert "MANIFEST" in names and any(n.startswith("rank-") for n in names)
        assert names == sorted(p.name for p in (tmp_path / "on").iterdir())
        for name in names:
            assert (tmp_path / "on" / name).read_bytes() == (
                tmp_path / "off" / name
            ).read_bytes(), name


class TestReplayTelemetry:
    def test_replay_metrics_land_in_shared_registry(self, program):
        registry = TelemetryRegistry()
        rec = record(program, telemetry=registry)
        rep = ReplaySession(
            program, rec.archive, network_seed=9, telemetry=registry
        ).run()
        assert rep.run_stats is not None
        assert rep.run_stats.mode == "replay"
        counters = registry.counters()
        assert counters["replay.delivered_events"] == rec.total_receive_events()
        assert counters["replay.pooled_events"] >= 0
        wait_hists = [
            name for name in registry.histograms() if name.startswith("replay.wait_us")
        ]
        assert wait_hists

    def test_replay_disabled_by_default(self, program):
        rec = record(program)
        rep = ReplaySession(program, rec.archive, network_seed=9).run()
        assert rep.run_stats is None
        assert rep.outcomes == rec.outcomes


class TestDiagnosticsSnapshot:
    def test_snapshot_empty_when_disabled(self):
        with use_registry(NULL_REGISTRY):
            assert telemetry_snapshot() == {}

    def test_snapshot_filters_to_pipeline_prefixes(self):
        reg = TelemetryRegistry()
        reg.counter("replay.blocked_polls").add(4)
        reg.counter("sim.events").add(100)  # not a report-worthy prefix
        reg.gauge("queue.occupancy_high_water").set_max(3)
        with use_registry(reg):
            snap = telemetry_snapshot()
        assert snap["counters"] == {"replay.blocked_polls": 4}
        assert snap["gauges"] == {"queue.occupancy_high_water": 3}
        assert snap["span_events"] == 0
        assert snap["dropped_events"] == 0
        assert snap["seconds_since_last_event"] >= 0.0

    def test_report_render_includes_telemetry_section(self, program):
        reg = TelemetryRegistry()
        rec = record(program, telemetry=reg)
        from repro.replay.diagnostics import ReplayReport

        with use_registry(reg):
            report = ReplayReport(ranks=(), telemetry=telemetry_snapshot())
        text = report.render()
        assert "telemetry:" in text
        assert "counters.record.flushes" in text
        assert rec.run_stats is not None
