"""Is each stored field necessary? — first instalment of the necessity engine.

ROADMAP item 2 asks of every field of the record what "Optimal Record and
Replay under Causal Consistency" (PAPERS.md) asks of any record: is it
load-bearing, or is it derivable from what is stored beside it? The
assist layout ("each fact once", DESIGN.md §5.9) was cut along that line,
version 4 (§5.10) re-coded what was kept — a bit per event for
``with_next``, an index into the chunk's sender list, gaps between
unmatched runs, steps between ceilings — and both halves are checked here,
for the columns and for the fields version 4 writes them as, on five 8-rank
workloads recorded at ``chunk_events=24``:

*Kept means load-bearing.* For each column an assist chunk still stores, a
minimal perturbation of one chunk — one value changed, the chunk otherwise
consistent — must make replay raise a typed error or end with an outcome
stream, final clocks or application results different from the record's
on at least one workload. A column no perturbation of which matters
anywhere would be dead weight.

*Dropped means derivable.* What an assist chunk no longer stores — epoch
ranks, per-sender counts, first clocks, and a diff against Definition 6's
clock order — equals, chunk for chunk, what the parent's encoder (kept in
``tests/core/oracles.py``) computed from the events, or is provably unread:
the replayer's schedule after activation (occurrence, quota, ceilings,
groups, unmatched runs) is the parent decoder's over the parent's chunk,
and putting the first-clock hints back replays bit-identically.

The table in EXPERIMENTS.md ("Each fact once": column × workload → raises /
differs / unaffected) is this module run as a script::

    PYTHONPATH=src:. python tests/replay/test_record_necessity.py
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import deque

import pytest

from repro.core.epoch import EpochLine
from repro.core.permutation import decode_permutation, encode_permutation
from tests.core.test_pipeline import build_tables
from repro.errors import RecordFormatError, ReplayDivergence, ReproError
from repro.replay.durable_store import RecordArchive, frame_bytes, load_archive
from repro.replay.replayer import CallsiteReplayState
from repro.replay.session import RecordSession, ReplaySession
from repro.workloads import make_workload
from tests.core.oracles import encode_chunk_sequence_oracle
from tests.replay import test_replay_golden as golden
from tests.replay.oracles import CallsiteReplayStateOracle

NPROCS = 8
CHUNK_EVENTS = 24
RECORD_SEED, REPLAY_SEED = 5, 9
WALL_BOUND_S = 5.0
WORKLOADS = {
    "mcb": {"particles_per_rank": 20, "seed": 3},
    "jacobi": {"iterations": 12, "seed": 3},
    "unstructured": {"vertices": 48, "iterations": 4, "seed": 3},
    "coupled": {"epochs": 2, "seed": 3},
    "synthetic": {"messages_per_rank": 12, "fanout": 2, "seed": 3},
}


@functools.lru_cache(maxsize=None)
def recorded(workload: str):
    """(program, record result) of one necessity workload."""
    program, _ = make_workload(workload, NPROCS, **WORKLOADS[workload])
    result = RecordSession(
        program, nprocs=NPROCS, network_seed=RECORD_SEED, chunk_events=CHUNK_EVENTS
    ).run()
    return program, result


def replay(program, archive, record):
    """``raises`` | ``differs`` | ``unaffected``, and what was raised."""
    started = time.perf_counter()
    try:
        result = ReplaySession(
            program, archive, network_seed=REPLAY_SEED,
            engine_kwargs={"max_events": 500_000},
        ).run()
    except ReproError as exc:
        verdict = "raises", type(exc).__name__
    else:
        same = (
            result.outcomes == record.outcomes
            and result.final_clocks == record.final_clocks
            and result.app_results == record.app_results
        )
        verdict = ("unaffected" if same else "differs"), None
    assert time.perf_counter() - started < WALL_BOUND_S
    return verdict


# -- minimal perturbations, one per stored column -----------------------------------
# Each takes one callsite's chunks at one rank and returns them with one
# value of one chunk changed, or None where this stream offers no site.


def _replace(chunks, k, **changes):
    return chunks[:k] + [dataclasses.replace(chunks[k], **changes)] + chunks[k + 1 :]


def swap_two_receives_of_one_sender(chunks):
    """permutation rows: one sender's first two receives change places."""
    for k, chunk in enumerate(chunks):
        seen: dict[int, int] = {}
        for q, sender in enumerate(chunk.sender_sequence):
            if sender in seen:
                order = decode_permutation(chunk.diff)
                p = seen[sender]
                order[p], order[q] = order[q], order[p]
                return _replace(chunks, k, diff=encode_permutation(order))
            seen[sender] = q
    return None


def add_a_with_next(chunks):
    for k, chunk in enumerate(chunks):
        free = set(range(chunk.num_events - 1)) - set(chunk.with_next_indices)
        if free:
            joined = tuple(sorted((*chunk.with_next_indices, min(free))))
            return _replace(chunks, k, with_next_indices=joined)
    return None


def drop_a_with_next(chunks):
    for k, chunk in enumerate(chunks):
        if chunk.with_next_indices:
            return _replace(chunks, k, with_next_indices=chunk.with_next_indices[1:])
    return None


def _edit_first_run(chunks, edit):
    for k, chunk in enumerate(chunks):
        if chunk.unmatched_runs:
            edited = edit(chunk, *chunk.unmatched_runs[0])
            if edited is not None:
                return _replace(chunks, k, unmatched_runs=(edited, *chunk.unmatched_runs[1:]))
    return None


def one_more_unmatched_test(chunks):
    return _edit_first_run(chunks, lambda chunk, position, count: (position, count + 1))


def one_fewer_unmatched_test(chunks):
    return _edit_first_run(
        chunks, lambda chunk, position, count: (position, count - 1) if count > 1 else None
    )


def shift_an_unmatched_run(chunks):
    def later(chunk, position, count):
        taken = {p for p, _ in chunk.unmatched_runs}
        if position + 1 <= chunk.num_events and position + 1 not in taken:
            return position + 1, count
        return None

    return _edit_first_run(chunks, later)


def lower_a_ceiling(chunks):
    """ceilings: one sender's, to one below its last clock in the chunk."""
    for k, chunk in enumerate(chunks):
        for sender, ceiling in chunk.epoch.as_sorted_pairs():
            lowered = {**chunk.epoch.max_clock_by_rank, sender: ceiling - 1}
            return _replace(chunks, k, epoch=EpochLine(lowered))
    return None


def claim_a_member_as_an_exception(chunks):
    """boundary exceptions: the next chunk claims a member of this one (its
    sender's last receive, the one event a chunk names: the epoch pair)."""
    for k, chunk in enumerate(chunks[:-1]):
        if chunk.num_events:
            member = chunk.epoch.as_sorted_pairs()[0]
            claimed = tuple(sorted((*chunks[k + 1].boundary_exceptions, member)))
            return _replace(chunks, k + 1, boundary_exceptions=claimed)
    return None


def swap_two_adjacent_senders(chunks):
    """sender column: two neighbouring receives of distinct senders."""
    for k, chunk in enumerate(chunks):
        senders = list(chunk.sender_sequence)
        for p in range(len(senders) - 1):
            if senders[p] != senders[p + 1]:
                senders[p], senders[p + 1] = senders[p + 1], senders[p]
                return _replace(chunks, k, sender_sequence=tuple(senders))
    return None


# -- the same, in the fields version 4 stores (DESIGN.md §5.10) ---------------------
# A set or cleared bit of the ``with_next`` plane is ``add`` / ``drop_a_with_next``
# above, a run length (stored less one) ``one_more`` / ``one_fewer_unmatched_test``.
# The rest are deltas: one stored value changed moves everything behind it.


def _bump_a_sender_index(chunks, step):
    """packed sender index: one event's, to the next (previous) of the
    chunk's senders — both still named by other events."""
    for k, chunk in enumerate(chunks):
        ranks = [rank for rank, _ in chunk.sender_counts]
        counts = dict(chunk.sender_counts)
        for p, sender in enumerate(chunk.sender_sequence):
            index = ranks.index(sender) + step
            if 0 <= index < len(ranks) and counts[sender] > 1:
                senders = list(chunk.sender_sequence)
                senders[p] = ranks[index]
                counts[sender] -= 1
                counts[ranks[index]] += 1
                return _replace(chunks, k, sender_sequence=tuple(senders),
                                sender_counts=tuple(sorted(counts.items())))
    return None


def raise_a_sender_index(chunks):
    return _bump_a_sender_index(chunks, +1)


def lower_a_sender_index(chunks):
    return _bump_a_sender_index(chunks, -1)


def _relabel(chunk, names):
    """``chunk`` with its senders renamed by ``names``; ceilings, counts and
    exceptions follow their sender."""
    rename = lambda pairs: tuple(sorted((names.get(r, r), v) for r, v in pairs))
    return dataclasses.replace(
        chunk,
        sender_sequence=tuple(names.get(s, s) for s in chunk.sender_sequence),
        epoch=EpochLine(dict(rename(chunk.epoch.max_clock_by_rank.items()))),
        sender_counts=rename(chunk.sender_counts),
        boundary_exceptions=rename(chunk.boundary_exceptions),
    )


def exchange_two_sender_entries(chunks):
    """sender list: two entries change places — every event of the one
    sender is the other's, with its ceiling."""
    for k, chunk in enumerate(chunks):
        if len(chunk.sender_counts) > 1:
            (a, _), (b, _) = chunk.sender_counts[:2]
            return chunks[:k] + [_relabel(chunk, {a: b, b: a})] + chunks[k + 1 :]
    return None


def widen_a_sender_gap(chunks):
    """sender list: one stored gap, +1 — that sender and every one after it
    is the next rank up."""
    for k, chunk in enumerate(chunks):
        if chunk.sender_counts:
            ranks = [rank for rank, _ in chunk.sender_counts]
            names = {rank: rank + 1 for rank in ranks[len(ranks) // 2 :]}
            return chunks[:k] + [_relabel(chunk, names)] + chunks[k + 1 :]
    return None


def _move_runs_from(chunks, step):
    """unmatched gaps: one stored gap, +-1 — that run and every one after
    it starts one event later (earlier)."""
    for k, chunk in enumerate(chunks):
        runs = chunk.unmatched_runs
        for i, (position, _) in enumerate(runs):
            floor = runs[i - 1][0] + 1 if i else 0
            if floor <= position + step and runs[-1][0] + step <= chunk.num_events:
                moved = tuple((p + step, c) for p, c in runs[i:])
                return _replace(chunks, k, unmatched_runs=runs[:i] + moved)
    return None


def widen_an_unmatched_gap(chunks):
    return _move_runs_from(chunks, +1)


def narrow_an_unmatched_gap(chunks):
    return _move_runs_from(chunks, -1)


def _step_the_ceilings_from(chunks, step):
    """ceiling steps: one stored step, +-1 — that sender's ceiling and every
    later sender's moves with it."""
    for k, chunk in enumerate(chunks):
        pairs = chunk.epoch.as_sorted_pairs()
        if pairs:
            start = len(pairs) // 2
            stepped = dict(pairs[:start] + [(r, c + step) for r, c in pairs[start:]])
            return _replace(chunks, k, epoch=EpochLine(stepped))
    return None


def raise_a_ceiling_step(chunks):
    return _step_the_ceilings_from(chunks, +1)


def lower_a_ceiling_step(chunks):
    return _step_the_ceilings_from(chunks, -1)


#: stored column -> its perturbations; from "sender index" on, the fields
#: version 4 writes the columns as
PERTURBATIONS = {
    "permutation": [swap_two_receives_of_one_sender],
    "with_next": [add_a_with_next, drop_a_with_next],
    "unmatched counts": [one_more_unmatched_test, one_fewer_unmatched_test],
    "unmatched positions": [shift_an_unmatched_run],
    "epoch ceilings": [lower_a_ceiling],
    "boundary exceptions": [claim_a_member_as_an_exception],
    "sender column": [swap_two_adjacent_senders],
    "sender index": [raise_a_sender_index, lower_a_sender_index],
    "sender list": [exchange_two_sender_entries, widen_a_sender_gap],
    "unmatched gaps": [widen_an_unmatched_gap, narrow_an_unmatched_gap],
    "ceiling steps": [lower_a_ceiling_step],
}
#: ... and the one direction of one field no replay notices: an assist
#: chunk's members are its sender column's (the k-th arrival of sender s, by
#: FIFO), so a ceiling is only ever an upper bound that is *checked* — one
#: that is too high checks less, and changes nothing (ROADMAP item 6 asks
#: what the clock buys; this is the first cell of that answer)
ONE_SIDED = {"ceiling steps": [raise_a_ceiling_step]}


def perturbed_archive(archive: RecordArchive, perturb) -> RecordArchive | None:
    """``archive`` with ``perturb`` applied at the first stream that has a
    site for it; flush order within the rank is kept."""
    for rank in range(archive.nprocs):
        for callsite, chunks in archive.chunks_by_callsite(rank).items():
            edited = perturb(list(chunks))
            if edited is None:
                continue
            swap = {id(old): new for old, new in zip(chunks, edited)}
            changed = RecordArchive(archive.nprocs, meta=dict(archive.meta))
            for r, chunk in archive.iter_all():
                changed.append(r, swap.get(id(chunk), chunk))
            return changed
    return None


@functools.lru_cache(maxsize=None)
def verdict(workload: str, perturb) -> tuple[str, str | None]:
    program, record = recorded(workload)
    archive = perturbed_archive(record.archive, perturb)
    if archive is None:
        return "no site", None
    return replay(program, archive, record)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_unperturbed_record_replays(workload):
    program, record = recorded(workload)
    assert all(c.sender_sequence is not None for _, c in record.archive.iter_all())
    assert replay(program, record.archive, record) == ("unaffected", None)


@pytest.mark.parametrize("column", sorted(PERTURBATIONS))
def test_kept_means_load_bearing(column):
    for perturb in PERTURBATIONS[column]:
        verdicts = {w: verdict(w, perturb)[0] for w in WORKLOADS}
        assert {"raises", "differs"} & set(verdicts.values()), (perturb.__name__, verdicts)


@pytest.mark.parametrize("column", sorted(ONE_SIDED))
def test_a_bound_that_is_too_loose_goes_unnoticed(column):
    """Pinned as found, not as wished: if a replay starts to notice, the
    EXPERIMENTS.md table and DESIGN.md §5.10 have a sentence to lose."""
    for perturb in ONE_SIDED[column]:
        assert {verdict(w, perturb)[0] for w in WORKLOADS} == {"unaffected"}, perturb.__name__


# -- dropped means derivable -------------------------------------------------------------


def parent_chunks(record, rank: int, chunk_events: int = CHUNK_EVENTS):
    """callsite -> the chunks the parent's encoder makes of ``rank``'s stream."""
    tables = build_tables(record.outcomes[rank], chunk_events=chunk_events)
    return {
        callsite: encode_chunk_sequence_oracle(ts, replay_assist=True)
        for callsite, ts in tables.items()
    }


def assert_derivable(archive: RecordArchive, record, chunk_events: int = CHUNK_EVENTS):
    """Every chunk of ``archive`` against the parent encoder's chunk for the
    same events, and the replayer's schedule against the parent decoder's."""
    compared = 0
    for rank in range(archive.nprocs):
        old_by_callsite = parent_chunks(record, rank, chunk_events)
        for callsite, chunks in archive.chunks_by_callsite(rank).items():
            olds = old_by_callsite[callsite]
            assert len(chunks) == len(olds)
            for new, old in zip(chunks, olds):
                # derived on read: the parent stored these
                assert new.sender_counts == old.sender_counts
                assert new.epoch == old.epoch
                assert list(new.epoch.max_clock_by_rank) == [r for r, _ in new.sender_counts]
                # dropped: only the assist-less replay reads them
                assert new.sender_min_clocks == () and (
                    len(old.sender_min_clocks) == len(old.sender_counts)
                )
                # everything else is the same record
                assert dataclasses.replace(
                    old, diff=new.diff, sender_min_clocks=()
                ) == new
                # FIFO channels: no sender is observed out of clock order
                assert new.diff.is_identity()
                state = CallsiteReplayState(rank, callsite, deque([new]))
                oracle = CallsiteReplayStateOracle(rank, callsite, deque([old]))
                for field in ("occurrence", "quota", "ceilings", "group_end", "unmatched_left"):
                    assert getattr(state, field) == getattr(oracle, field), field
                compared += 1
    assert compared == sum(len(archive.chunks(r)) for r in range(archive.nprocs)) > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dropped_means_derivable(workload, tmp_path):
    _, record = recorded(workload)
    record.archive.save(str(tmp_path))
    decoded, report = load_archive(str(tmp_path))
    assert report.clean and decoded.chunks_by_rank == record.archive.chunks_by_rank
    assert_derivable(decoded, record)


@pytest.mark.parametrize("workload", sorted(golden.WORKLOADS))
def test_schedules_of_the_golden_workloads_equal_the_parents(workload):
    """The acceptance differential on the configurations ``golden_replay.json``
    pins: replay decisions are unchanged by construction."""
    _, record = golden.record(workload, assist=True)
    assert_derivable(record.archive, record, golden.CHUNK_SIZES[0])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_clock_hints_are_not_read(workload):
    """Put back what the parent stored: the replay is the same to the bit."""
    program, record = recorded(workload)
    hinted = RecordArchive(NPROCS)
    for rank in range(NPROCS):
        olds = {cs: iter(chunks) for cs, chunks in parent_chunks(record, rank).items()}
        for chunk in record.archive.chunks(rank):
            hints = next(olds[chunk.callsite]).sender_min_clocks
            hinted.append(rank, dataclasses.replace(chunk, sender_min_clocks=hints))
    assert any(c.sender_min_clocks for _, c in hinted.iter_all())
    runs = [
        ReplaySession(program, archive, network_seed=REPLAY_SEED).run()
        for archive in (record.archive, hinted)
    ]
    for run in runs:
        assert run.outcomes == record.outcomes
        assert run.final_clocks == record.final_clocks
    assert runs[0].stats.virtual_time == runs[1].stats.virtual_time
    assert runs[0].stats.total_events == runs[1].stats.total_events


# -- one source for an assist chunk's quota ------------------------------------------------


@pytest.mark.parametrize("step", [+1, -1])
def test_sender_counts_that_contradict_the_sender_column_are_refused(step):
    """At the parent the quota was the stored count column: one count raised
    by 1 replayed "clean", lowered by 1 it ended as an engine-level deadlock
    whose report named no chunk. The quota is the sender column's now, the
    contradiction cannot be serialized, and a hand-built chunk carrying it is
    refused where it is activated — by rank, callsite and chunk index."""
    program, _ = make_workload("mcb", NPROCS, particles_per_rank=20, seed=3)
    record = RecordSession(program, nprocs=NPROCS, network_seed=RECORD_SEED).run()
    rank, victim = next(
        (r, c) for r, c in record.archive.iter_all() if c.callsite == "mcb:particles"
    )
    (sender, count), *rest = victim.sender_counts
    wrong = dataclasses.replace(victim, sender_counts=((sender, count + step), *rest))
    archive = RecordArchive(NPROCS)
    for r, chunk in record.archive.iter_all():
        archive.append(r, wrong if chunk is victim else chunk)
    with pytest.raises(RecordFormatError) as info:
        ReplaySession(program, archive, network_seed=REPLAY_SEED).run()
    assert not isinstance(info.value, ReplayDivergence)
    message = str(info.value)
    assert f"rank {rank} callsite 'mcb:particles' chunk 0" in message
    assert "contradict the sender column" in message
    # what reaches storage cannot disagree: the count column is not written
    assert frame_bytes(wrong) == frame_bytes(victim)


def _table() -> str:
    header = ["column", "perturbation", *WORKLOADS]
    rows = [header]
    for column, perturbs in [*PERTURBATIONS.items(), *ONE_SIDED.items()]:
        for perturb in perturbs:
            cells = []
            for workload in WORKLOADS:
                kind, error = verdict(workload, perturb)
                cells.append(f"{kind} ({error})" if error else kind)
            rows.append([column, perturb.__name__.replace("_", " "), *cells])
    lines = ["| " + " | ".join(row) + " |" for row in rows]
    lines.insert(1, "|" + "---|" * len(header))
    return "\n".join(lines)


if __name__ == "__main__":
    print(_table())
