"""Differential golden: replay is bit-identical across replayer rewrites.

Every case records one workload and replays it under two other network
seeds; what a replay must reproduce — the kept outcome streams, the
application results and the final Lamport clocks — is hashed and compared
with ``golden_replay.json``, and so is every ``MFResult.indices`` the
programs were handed (the replayer's slot choices). The matrix covers both replay paths: archives
with the replay-assist column (the activation-time schedule) and without
it (the paper's LMC certainty reasoning), each under both delivery modes.
A case the replayer cannot finish (``DeliveryMode.BARRIER`` withholding a
delivery its own chunk depends on; the assist-less path's known stalls)
pins the error type and how many events were delivered before it wedged,
so "fails exactly as before" is pinned too. Each of them is a
``ReplayStallError`` the replayer raises at the fixpoint (DESIGN.md §5.4);
the delivered counts are those the ``max_events`` backstop used to stop at.

The telemetry section pins the replay instruments, which count decisions
(pooled arrivals, blocked polls, deliveries, peak pool size, wait samples)
and therefore must not move when only the cost of a decision changes.

The digests were generated at the commit *before* the schedule-driven
replayer; regenerate (only after an intentional behaviour change) with::

    PYTHONPATH=src python tests/replay/test_replay_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.errors import ReplayDivergence, ReproError
from repro.obs import TelemetryRegistry
from repro.replay import RecordSession, ReplaySession
from repro.replay.diagnostics import StallReport, build_stall_report, replay_report
from repro.replay.replayer import DeliveryMode
from repro.sim.process import MFResult
from repro.workloads import make_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_replay.json")

#: workload -> (ranks, parameters); MCB stays small because the
#: assist-less LMC path is known to stall on it as it grows (DESIGN.md §5.4).
WORKLOADS = {
    "mcb": (8, {"particles_per_rank": 8, "seed": 3}),
    "jacobi": (12, {"iterations": 8, "residual_interval": 4, "seed": 3}),
    "unstructured": (16, {"vertices": 64, "iterations": 2, "seed": 3}),
    "coupled": (12, {"epochs": 2, "seed": 3}),
}
RECORD_SEED = 5
REPLAY_SEEDS = (21, 22)
#: small chunks, so activation, overflow re-feeding and boundary
#: exceptions all run many times per case; one-event chunks are what lets
#: ``BARRIER`` finish on the assist-less path, so it is pinned by successes.
CHUNK_SIZES = (24, 1)
#: a wedge the stall detector missed would spin on beacon retries; bounding
#: the engine at this multiple of the record's event count keeps that quick.
MAX_EVENTS_FACTOR = 3

CASES = [
    (workload, mode, assist, chunk_events)
    for workload in WORKLOADS
    for mode in DeliveryMode
    for assist in (True, False)
    for chunk_events in CHUNK_SIZES
]


def case_id(workload: str, mode: DeliveryMode, assist: bool, chunk_events: int) -> str:
    path = "assist" if assist else "lmc"
    return f"{workload}-{mode.value}-{path}-chunk{chunk_events}"


def record(workload: str, assist: bool, chunk_events: int = CHUNK_SIZES[0]):
    nprocs, params = WORKLOADS[workload]
    program, _ = make_workload(workload, nprocs, **params)
    result = RecordSession(
        program,
        nprocs=nprocs,
        network_seed=RECORD_SEED,
        chunk_events=chunk_events,
        replay_assist=assist,
    ).run()
    return program, result


def spy_on_indices(program, log: dict[int, list]):
    """Wrap ``program`` so every ``MFResult.indices`` it receives is logged."""

    def spied(ctx):
        gen = program(ctx)
        seen = log.setdefault(ctx.rank, [])
        value = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield op
            if isinstance(value, MFResult):
                seen.append(value.indices)

    return spied


def slots_digest(log: dict[int, list]) -> str:
    return hashlib.sha256(repr(sorted(log.items())).encode()).hexdigest()[:16]


def state_digest(result) -> str:
    """SHA-256 over kept outcomes, application results and final clocks."""
    h = hashlib.sha256()
    for rank in range(result.nprocs):
        for outcome in result.outcomes[rank]:
            matched = ",".join(f"{e.rank}:{e.clock}" for e in outcome.matched)
            h.update(f"{rank}|{outcome.callsite}|{outcome.kind.value}|{matched}\n".encode())
        h.update(f"{rank}|result|{result.app_results[rank]!r}\n".encode())
        h.update(f"{rank}|clock|{result.final_clocks[rank]}\n".encode())
    return h.hexdigest()


def replay_digests(
    workload: str, mode: DeliveryMode, assist: bool, chunk_events: int
) -> list[str]:
    program, recorded = record(workload, assist, chunk_events)
    digests = []
    for seed in REPLAY_SEEDS:
        indices: dict[int, list] = {}
        session = ReplaySession(
            spy_on_indices(program, indices),
            recorded.archive,
            network_seed=seed,
            delivery_mode=mode,
            engine_kwargs={
                "max_events": MAX_EVENTS_FACTOR * recorded.stats.total_events
            },
        )
        try:
            state = state_digest(session.run())
            digests.append(f"{state} slots={slots_digest(indices)}")
        except ReproError as exc:
            delivered = sum(
                state.delivered_events
                for state in session._engine.controller.callsite_states()
            )
            digests.append(f"raises:{type(exc).__name__}:delivered={delivered}")
    return digests


TELEMETRY_CASES = [("mcb", True), ("unstructured", True), ("mcb", False)]


def replay_telemetry(workload: str, assist: bool) -> dict[str, int]:
    program, recorded = record(workload, assist)
    registry = TelemetryRegistry()
    ReplaySession(
        program, recorded.archive, network_seed=REPLAY_SEEDS[0], telemetry=registry
    ).run()
    counters = registry.counters()
    out = {
        name: counters.get(name, 0)
        for name in (
            "replay.pooled_events",
            "replay.blocked_polls",
            "replay.delivered_events",
        )
    }
    out["replay.pool_occupancy"] = registry.gauges()["replay.pool_occupancy"]
    for name, hist in sorted(registry.histograms().items()):
        if name.startswith("replay.wait_us["):
            out[f"{name}.count"] = hist["count"]
    return out


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize(
    "workload,mode,assist,chunk_events", CASES, ids=[case_id(*c) for c in CASES]
)
def test_replay_digest_matches_golden(golden, workload, mode, assist, chunk_events):
    assert replay_digests(workload, mode, assist, chunk_events) == golden[
        "digests"
    ][case_id(workload, mode, assist, chunk_events)]


def test_golden_pins_every_path_by_successes(golden):
    """A pinned failure says little; each workload must replay to the same
    state under both seeds, in both modes, with and without the assist
    column, for at least one chunk size."""
    for workload in WORKLOADS:
        states = set()
        for mode in DeliveryMode:
            for assist in (True, False):
                cases = [
                    golden["digests"][case_id(workload, mode, assist, chunk_events)]
                    for chunk_events in CHUNK_SIZES
                ]
                finished = [
                    digests
                    for digests in cases
                    if not any(d.startswith("raises:") for d in digests)
                ]
                assert finished, (workload, mode, assist)
                states.update(d.split()[0] for digests in finished for d in digests)
        # Theorems 1-2: every path and seed reproduces the one recorded state
        assert len(states) == 1


@pytest.mark.parametrize(
    "workload,assist",
    TELEMETRY_CASES,
    ids=[f"{w}-{'assist' if a else 'lmc'}" for w, a in TELEMETRY_CASES],
)
def test_replay_telemetry_counts_unchanged(golden, workload, assist):
    key = f"{workload}-{'assist' if assist else 'lmc'}"
    assert replay_telemetry(workload, assist) == golden["telemetry"][key]


class TestStalledAssistArchiveStillReports:
    """A replay that outlives its senders parks forever on an assist chunk;
    both post-mortems must still render from the schedule-driven state."""

    NPROCS = 6

    def stalled_session(self):
        def workload(messages_per_rank):
            return make_workload(
                "synthetic", self.NPROCS, seed=3,
                messages_per_rank=messages_per_rank, fanout=2,
            )[0]

        recorded = RecordSession(
            workload(8), nprocs=self.NPROCS, network_seed=1
        ).run()
        assert all(
            c.sender_sequence is not None for c in recorded.archive.chunks(0)
        )
        session = ReplaySession(workload(6), recorded.archive, network_seed=2)
        with pytest.raises(ReplayDivergence) as info:
            session.run()
        return session, info.value

    def test_replay_report_renders(self):
        session, error = self.stalled_session()
        assert "blocked" in str(error)
        controller = session._engine.controller
        report = replay_report(session._engine, controller)
        blocked = [
            c for r in report.ranks for c in r.callsites if c.status == "blocked"
        ]
        assert blocked and all(c.uses_assist for c in blocked)
        for c in blocked:
            state = controller._states[c.rank][c.callsite]
            assert c.pooled == state.pooled_count == len(state.pooled_clocks())
            assert c.horizon == state.certainty_horizon() is not None
            assert c.outstanding_quota
        text = report.render()
        assert "waiting on senders" in text and "pooled" in text

    def test_stall_report_renders(self):
        session, _ = self.stalled_session()
        controller = session._engine.controller
        stall = build_stall_report(session._engine, controller)
        assert isinstance(stall, StallReport)
        assert stall.divergence is not None
        assert stall.divergence.kind == "missing-event"
        assert sum(stall.last_epoch.values()) > 0
        text = stall.render()
        assert "first-divergence candidate" in text
        assert "never arrived" in text


if __name__ == "__main__":
    golden = {
        "digests": {case_id(*c): replay_digests(*c) for c in CASES},
        "telemetry": {
            f"{w}-{'assist' if a else 'lmc'}": replay_telemetry(w, a)
            for w, a in TELEMETRY_CASES
        },
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failures = sum(d.startswith("raises:") for ds in golden["digests"].values() for d in ds)
    print(f"wrote {GOLDEN_PATH}: {len(CASES)} cases, {failures} pinned failures")
