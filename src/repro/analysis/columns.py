"""A recorded run as columns: the one way analysis gets a run out of a record.

An archive stores no identifier columns and no timestamps (CDC drops them),
so every analysis of a recorded run starts with one deterministic replay of
the workload its manifest names, a :class:`~repro.obs.causal.ColumnarFlowRecorder`
attached: Theorem 2 makes the regenerated ``(sender, clock)`` streams equal
to the recorded ones for any network seed, and the simulator's virtual
clock makes the timings exact. :func:`rehydrate` is that step and
:class:`RehydratedRun` what it returns — numpy columns, no object per event.

:func:`rehydrate_pair` does it for the two operands of a diff, minus what
Theorem 2 proves redundant: a replay is a pure function of (record,
program), so one record is replayed once and two distinct ones at once
(DESIGN.md §5.11). Nothing is kept between calls or written to disk.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Mapping, Sequence

import numpy as np

#: recorder attribute suffixes, in :class:`RehydratedRun` field order.
_SEND = ("src", "dst", "tag", "clock", "t")
_RECV = ("rank", "callsite", "sender", "clock", "t")


@dataclass
class RehydratedRun:
    """The flow-recorder columns of one run: a row per send
    (``send_src/dst/tag/clock/t``) and per matched receive
    (``recv_rank/cs/sender/clock/t``, ``recv_cs`` an index into
    :attr:`callsites` / :attr:`kinds`) in capture order, so a rank's rows are
    in its program order. Times are virtual seconds."""

    label: str
    #: rank count of the record (0: unknown, infer from the columns).
    nprocs: int
    send_src: np.ndarray
    send_dst: np.ndarray
    send_tag: np.ndarray
    send_clock: np.ndarray
    send_t: np.ndarray
    recv_rank: np.ndarray
    recv_cs: np.ndarray
    recv_sender: np.ndarray
    recv_clock: np.ndarray
    recv_t: np.ndarray
    callsites: list[str]
    kinds: list[str]
    #: ranks the run has a receive stream for, empty streams included.
    ranks: tuple[int, ...]
    #: the replay's :class:`~repro.replay.session.RunResult` (its ``flow`` is
    #: the recorder); None for columns that came from memory, not a replay.
    result: Any = None

    @classmethod
    def from_flow(cls, rec: Any, nprocs: int = 0, result: Any = None) -> RehydratedRun:
        """Views of a :class:`~repro.obs.causal.ColumnarFlowRecorder`'s
        columns, not copies."""
        columns = [getattr(rec, "send_" + c).values for c in _SEND]
        columns += [getattr(rec, "recv_" + c).values for c in _RECV]
        callsites, kinds = list(rec.callsites), list(rec.kinds)
        return cls(rec.label, nprocs, *columns, callsites, kinds, tuple(range(nprocs)), result)

    @classmethod
    def from_outcomes(
        cls, outcomes: Mapping[int, Sequence[Any]], label: str = "run"
    ) -> RehydratedRun:
        """Receive columns of per-rank outcome streams (a session result's
        ``outcomes``, a loaded trace): no sends, and no times."""
        ids: dict[tuple[str, str], int] = {}
        rows: list[tuple[int, int, int, int]] = []
        for rank, stream in outcomes.items():
            for outcome in stream:
                if outcome.matched:
                    kind = getattr(outcome.kind, "value", outcome.kind)
                    cs = ids.setdefault((outcome.callsite, kind), len(ids))
                    rows += [(rank, cs, ev.rank, ev.clock) for ev in outcome.matched]
        none, times = np.zeros(0, dtype=np.int64), np.zeros(len(rows))
        received = np.asarray(rows, dtype=np.int64).reshape(-1, 4).T
        return cls(
            label, 0, none, none, none, none, times[:0], *received, times,
            [k[0] for k in ids], [k[1] for k in ids], tuple(int(r) for r in outcomes),
        )  # fmt: skip


def rehydrate(
    source: Any,
    network_seed: int = 0,
    workload_fallback: Mapping[str, Any] | None = None,
    flow: Any = None,
    keep_outcomes: bool = False,
    program: Any = None,
) -> RehydratedRun:
    """Deterministically replay a record once; returns its columns.

    ``source`` is anything :func:`~repro.replay.durable_store.open_run`
    takes; a directory whose recording died mid-flight is opened in salvage
    mode, so callers localize the truncation instead of refusing it. The
    program is ``program``, else the workload the manifest names (or
    ``workload_fallback``, for a manifest-less crashed recording); ``flow=``
    captures into the caller's recorder. ``keep_outcomes=True`` is for
    callers that want ``result.outcomes``: at a million events the outcome
    objects cost more than the replay itself.
    """
    from repro.obs.causal import ColumnarFlowRecorder
    from repro.replay.durable_store import open_run
    from repro.replay.session import ReplaySession

    run = open_run(source)
    if flow is None:
        flow = ColumnarFlowRecorder(run.label)
    program = program or run.program(workload_fallback)
    session = ReplaySession(
        program, run, network_seed, mode=run.mode, flow=flow, keep_outcomes=keep_outcomes
    )
    return RehydratedRun.from_flow(flow, run.archive.nprocs, session.run())


def _outcome_mapping(source: Any) -> Mapping[int, Sequence[Any]] | None:
    """The per-rank outcome streams ``source`` holds in memory, if any: a
    session result's (anything with an ``outcomes`` mapping), or a raw
    ``{rank: [MFOutcome, ...]}`` mapping."""
    outcomes = getattr(source, "outcomes", None)
    if outcomes is not None and not isinstance(source, Mapping):
        source = outcomes
    if isinstance(source, Mapping) and (
        not source or isinstance(next(iter(source.values())), (list, tuple))
    ):
        return source
    return None


def workload_meta(source: Any) -> dict[str, Any] | None:
    """Best-effort workload metadata from a run-shaped source, or None.

    Lets one side's committed manifest stand in for the other's in a diff:
    a recording that died mid-run leaves rank frames but no manifest.
    """
    from repro.errors import RecordFormatError
    from repro.replay.durable_store import open_run

    try:
        run = open_run(source)
    except (TypeError, RecordFormatError, OSError):  # TypeError: not a record
        return None
    if "workload" not in run.meta:
        return None
    return dict(run.meta, nprocs=run.meta.get("nprocs", run.archive.nprocs))


def _same_record(a: Any, b: Any) -> bool:
    """True when replaying ``b`` can only repeat the replay of ``a``: equal
    decoded chunk lists, manifests that agree on everything but the network
    seed (which a replay does not read), and the same open mode."""
    meta_a, meta_b = (dict(run.meta, network_seed=None) for run in (a, b))
    return (
        a.mode == b.mode
        and meta_a == meta_b
        and a.archive.nprocs == b.archive.nprocs
        and a.archive.chunks_by_rank == b.archive.chunks_by_rank
    )


def _replay_both(replay_a: Callable, replay_b: Callable) -> tuple[RehydratedRun, RehydratedRun]:
    """``(replay_a(), replay_b())``, B replayed by a forked child while this
    process replays A (DESIGN.md §5.11, "Two records, two processes") if it
    runs on Linux with one thread and telemetry off. A child that does not
    deliver its pickle costs ``replay_b()`` here: the serial path's result or
    error. No child outlives the call."""
    from repro.obs.registry import telemetry_enabled

    if sys.platform != "linux" or threading.active_count() > 1 or telemetry_enabled():
        return replay_a(), replay_b()
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: the serial path
        os.close(reader), os.close(writer)
        return replay_a(), replay_b()
    if pid == 0:  # the child leaves by os._exit: no atexit hook, no stdio flush
        try:
            os.close(reader)
            run = replay_b()
            drop = dict.fromkeys(("archive", "controller", "registry", "flow", "profile"))
            run.result = replace(run.result, **drop)
            with os.fdopen(writer, "wb") as pipe:
                pickle.dump(run, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(writer)
    try:
        with os.fdopen(reader, "rb") as pipe:
            first = replay_a()
            data = pipe.read()
        pid, status = 0, os.waitpid(pid, 0)[1]  # pid 0: reaped
    finally:
        if pid:  # not reaped: this process's replay raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        second = pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None
    except (pickle.UnpicklingError, EOFError):  # a short or unreadable pickle
        second = None
    return first, second or replay_b()


def rehydrate_pair(a: Any, b: Any) -> tuple[RehydratedRun, RehydratedRun]:
    """Both operands of a diff as columns: a :class:`RehydratedRun` passes
    through, outcome streams held in memory are converted, a record is
    replayed (either side's :func:`workload_meta` the fallback for a side
    without a manifest). Within the call the program is built once per
    distinct workload metadata, and when both operands are the same record
    (:func:`_same_record`) the second one *is* the first (Theorem 2); two
    distinct records are replayed at once (:func:`_replay_both`)."""
    from repro.replay.durable_store import open_run

    a, b = (open_run(s) if isinstance(s, str) else s for s in (a, b))  # a directory once
    fallback = workload_meta(a) or workload_meta(b)
    out: list = []  # columns, None for "the first replay's", or a replay to run
    first: tuple | None = None  # (stored run, workload, program) of the first replay
    for source in (a, b):
        streams = _outcome_mapping(source)
        if isinstance(source, RehydratedRun):
            out.append(source)
        elif streams is not None:
            out.append(RehydratedRun.from_outcomes(streams))
        elif first and _same_record(first[0], open_run(source)):
            out.append(None)
        else:
            run = open_run(source)
            meta = workload_meta(run) or dict(fallback or {}, nprocs=run.archive.nprocs)
            workload = [meta.get(k) for k in ("workload", "nprocs", "params")]
            program = first[2] if first and first[1] == workload else run.program(fallback)
            out.append(partial(rehydrate, run, workload_fallback=fallback, program=program))
            first = first or (run, workload, program)
    both = all(isinstance(job, partial) for job in out)
    a, b = _replay_both(*out) if both else (j() if isinstance(j, partial) else j for j in out)
    return a, b if b is not None else a


def rehydrate_run(
    source: Any,
    network_seed: int = 0,
    workload_fallback: Mapping[str, Any] | None = None,
    flow: Any = None,
    keep_outcomes: bool = True,
):
    """Wrapper: :func:`rehydrate`'s :class:`~repro.replay.session.RunResult`,
    for callers that want ``outcomes`` or hand in their own ``flow``."""
    return rehydrate(source, network_seed, workload_fallback, flow, keep_outcomes).result


def run_outcomes(
    source: Any, network_seed: int = 0, workload_fallback: Mapping[str, Any] | None = None
) -> dict[int, list]:
    """Wrapper: per-rank outcome streams of any run-shaped source — the ones
    it holds in memory, else those of one :func:`rehydrate_run`."""
    streams = _outcome_mapping(source)
    if streams is None:
        streams = rehydrate_run(source, network_seed, workload_fallback).outcomes
    return {int(r): list(stream) for r, stream in streams.items()}
