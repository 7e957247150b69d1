"""Dashboard: build, validate, self-containment."""

from __future__ import annotations

import json

from repro.obs import build_dashboard, validate_dashboard_html, write_dashboard
from repro.obs.dashboard import REQUIRED_SECTIONS
from repro.replay import RecordSession
from repro.workloads import make_workload


def seeded_ledger(tmp_path, runs=3):
    path = str(tmp_path / "ledger.jsonl")
    program, _ = make_workload("mcb", 4)
    for seed in range(1, runs + 1):
        RecordSession(
            program,
            nprocs=4,
            network_seed=seed,
            ledger=path,
            meta={"workload": "mcb"},
        ).run()
    return path


class TestDashboard:
    FOLDED = [
        "main;engine;encode 60",
        "main;engine;deliver 30",
        "main;io 10",
    ]

    def test_empty_inputs_still_valid(self):
        text = build_dashboard()
        assert validate_dashboard_html(text) == []
        for section in REQUIRED_SECTIONS:
            assert section in text

    def test_full_build_from_real_run(self, tmp_path):
        ledger = seeded_ledger(tmp_path)
        text = build_dashboard(
            ledger=ledger,
            folded=self.FOLDED,
            generated_at="2026-08-07T00:00:00+0000",
        )
        assert validate_dashboard_html(text) == []
        assert "mcb/record @ 4 ranks" in text
        assert "bytes_per_event" in text
        assert "fg-cell" in text and "encode" in text
        # charts carry their data for the hover layer
        assert "data-values=" in text

    def test_write_dashboard(self, tmp_path):
        path = write_dashboard(str(tmp_path / "dash.html"))
        text = open(path, encoding="utf-8").read()
        assert validate_dashboard_html(text) == []

    def test_untrusted_names_escaped(self):
        evil = '<script>alert(1)</script>'
        text = build_dashboard(folded=[f"main;{evil} 5"])
        assert evil not in text
        assert "&lt;script&gt;" in text
        assert validate_dashboard_html(text) == []

    def test_validator_catches_problems(self):
        assert "missing <!DOCTYPE html> preamble" in "; ".join(
            validate_dashboard_html("<html></html>")
        )
        text = build_dashboard()
        broken = text.replace('id="dash-flame"', 'id="dash-f"')
        assert any(
            "dash-flame" in p for p in validate_dashboard_html(broken)
        )
        external = text.replace(
            "<script>", '<script src="https://evil.example/x.js"></script><script>'
        )
        assert any(
            "external asset" in p for p in validate_dashboard_html(external)
        )


class TestCriticalPathSection:
    """`dash-critical`: blame bars + slack histogram from `repro explain`."""

    EXPLAIN = {
        "format": "cdc-explain",
        "version": 1,
        "label": "unit-run",
        "critical_path_share": 0.62,
        "top_path_rank": 3,
        "path_duration_us": 412.5,
        "path_edges": 41,
        "max_slack_us": 19.25,
        "ranks": [
            {
                "rank": 3,
                "path_us": 255.0,
                "path_share": 0.62,
                "late_sender_us": 80.0,
                "in_flight_us": 20.0,
                "imbalance_us": 3.0,
                "slack_max_us": 19.25,
            },
            {
                "rank": 1,
                "path_us": 157.5,
                "path_share": 0.38,
                "late_sender_us": 10.0,
                "in_flight_us": 5.0,
                "imbalance_us": 40.0,
                "slack_max_us": 2.0,
            },
        ],
        "slack_histogram": [
            {"edge_us": 5.0, "count": 12},
            {"edge_us": 10.0, "count": 3},
        ],
    }

    def test_critical_is_a_required_section(self):
        assert "dash-critical" in REQUIRED_SECTIONS

    def test_placeholder_without_explain(self):
        text = build_dashboard()
        assert 'id="dash-critical"' in text
        assert "no explain report supplied" in text
        assert validate_dashboard_html(text) == []

    def test_blame_bars_and_histogram_rendered(self):
        text = build_dashboard(explain=self.EXPLAIN)
        assert "no explain report supplied" not in text
        assert "62.0% of the critical path" in text
        assert "blame by rank" in text
        assert 'class="blame-fill hot"' in text  # 0.62 >= 0.5 → hot bar
        assert text.count('class="slack-col"') == 2
        assert validate_dashboard_html(text) == []

    def test_explain_loads_from_path(self, tmp_path):
        path = tmp_path / "explain.json"
        path.write_text(json.dumps(self.EXPLAIN))
        text = build_dashboard(explain=str(path))
        assert "62.0% of the critical path" in text

    def test_unreadable_explain_path_degrades(self, tmp_path):
        text = build_dashboard(explain=str(tmp_path / "missing.json"))
        assert "no explain report supplied" in text
        assert validate_dashboard_html(text) == []

    def test_explain_label_is_escaped(self):
        evil = dict(self.EXPLAIN, label="<script>alert(1)</script>")
        text = build_dashboard(explain=evil)
        assert "<script>alert(1)</script>" not in text
        assert "&lt;script&gt;" in text

    def test_validator_enforces_critical_id(self):
        text = build_dashboard()
        broken = text.replace('id="dash-critical"', 'id="dash-x"')
        assert any(
            "dash-critical" in p for p in validate_dashboard_html(broken)
        )
