"""Self-tests of the benchmark (``pytest bench/tests``), at ``--smoke`` scale.

They check the harness, not the program's speed: that the declaration, the
README and the emitted metrics name the same things, that
counts repeat exactly, that the trace is well formed, that differenced
layers reconcile, and that a failed check fails the command.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(ROOT, "bench", "out")
RUN = [sys.executable, os.path.join(ROOT, "bench", "run.py")]
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
NAMES = [w["name"] for w in DECLARED["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: metrics derived from counts alone: the same seed must repeat them exactly.
EXACT = {
    0: ["bytes_per_receive_event", "disk_vs_gzip_ratio"],
    1: [
        "sim.events", "sim.mf_calls", "sim.messages", "recorder.chunks",
        "recorder.receive_events", "core.payload_bytes", "core.stored_bytes",
        "core.moved_share", "store.frames", "store.disk_bytes",
        "store.frame_overhead_bytes", "analysis.flow_events",
    ] + [
        m["name"] for m in DECLARED["per_layer"] if m["name"].startswith("core.bytes.")
    ],
}
#: what an end-to-end run keeps beside its metrics.
COUNTS = {"events", "receives", "disk_bytes", "gzip_bytes", "archive_digest"}


def smoke(workload: str, trace: int, seed: int = 7):
    """One ``--smoke`` run: (last-line JSON, the detail file it wrote)."""
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
               "--smoke"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    kind = "layers" if trace else "e2e"
    with open(os.path.join(OUT, f"result-{workload}-{kind}.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return {(name, trace): smoke(name, trace) for name in NAMES for trace in (0, 1)}


def test_declaration_is_well_formed():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["bench"] and DECLARED["command"][-1] == "bench/run.py"
    assert list(WORKLOADS) == NAMES
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in DECLARED[kind]:
            assert set(m) == keys, m
            assert NAME_RE.match(m["name"]) and UNIT_RE.match(m["unit"]), m
            assert m["better"] in ("lower", "higher")
            assert 0 < m.get("bound", 0.1) <= 0.25
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in DECLARED[k]] + NAMES
    assert len(names) == len(set(names))
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_every_declared_metric_is_emitted_and_no_other(runs):
    for (name, trace), (result, detail) in runs.items():
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }, (name, trace)
        # "no other": every value a run computes is declared, bar the counts
        assert set(detail["counts"]) == (set() if trace else COUNTS), (name, trace)
        if not trace:  # an end-to-end metric is never 0
            assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_readme_defines_every_metric_and_workload():
    with open(os.path.join(ROOT, "bench", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    declared = [m["name"] for k in ("end_to_end", "per_layer") for m in DECLARED[k]]
    for name in declared + NAMES:
        assert f"`{name}`" in readme, name


def test_same_seed_repeats_counts_and_other_seed_changes_the_archive(runs):
    for trace in (0, 1):
        first, first_detail = runs["mcb32", trace]
        again, again_detail = smoke("mcb32", trace)
        for name in EXACT[trace]:
            assert first["metrics"][name] == again["metrics"][name], name
        assert first_detail["counts"] == again_detail["counts"]
    _, other = smoke("mcb32", 0, seed=8)
    digest = runs["mcb32", 0][1]["counts"]["archive_digest"]
    assert len(digest) == 64 and other["counts"]["archive_digest"] != digest


def test_trace_file_is_well_formed(runs):
    for name in NAMES:
        with open(os.path.join(OUT, f"trace-{name}.json"), encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        by_id = {e["args"]["id"]: e for e in events}
        assert events and len(by_id) == len(events)
        assert any(e["name"] == "rep" and e["args"]["parent"] is None for e in events)
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0 and e["args"]["workload"] == name
            parent = e["args"]["parent"]
            if parent is not None:  # a span has a parent or is a root
                p = by_id[parent]
                assert p["ts"] <= e["ts"] and e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1
        assert runs[name, 1][0]["metrics"]["trace.spans"]["value"] == len(events)


def test_differenced_layers_reconcile(runs):
    """The probe drops no term: the parts add up to the whole they came from."""
    for name in NAMES:
        m = {k: v["value"] for k, v in runs[name, 1][0]["metrics"].items()}
        assert m["sim.baseline_s"] + m["recorder.self_s"] + m["store.stream_write_s"] == \
            pytest.approx(m["store.record_durable_s"], abs=1e-9)
        assert m["core.build_tables_s"] + m["core.encode_s"] + m["recorder.hook_s"] == \
            pytest.approx(m["recorder.self_s"], abs=1e-9)
        assert m["sim.baseline_s"] + m["replayer.self_s"] == \
            pytest.approx(m["replayer.replay_s"], abs=1e-9)
        assert m["store.disk_bytes"] - m["store.frame_overhead_bytes"] == m["core.stored_bytes"]
        assert sum(v for k, v in m.items() if k.startswith("core.bytes.")) <= \
            m["core.payload_bytes"]


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    """Tell the guard that Jacobi's two network seeds must differ: they do
    not, so checks fail, ``correct`` is false and the exit code is not 0."""
    from bench import run

    monkeypatch.setitem(
        WORKLOADS, "jacobi64", dataclasses.replace(WORKLOADS["jacobi64"], deterministic=False)
    )
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(["--workload", "jacobi64", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mcb32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
