"""Fault-injection suite: recording under crashes, torn writes, bit rot, EIO.

Drives :class:`tests.faults.FaultInjector` through the full stack —
``RecordSession`` -> recording controller -> durable store -> salvage
loader -> ``ReplaySession`` — and checks the durability contract:

* every injected crash point leaves an archive whose salvage is a valid
  epoch-aligned chunk prefix of the fault-free record, and replaying that
  prefix reproduces the recorded delivery order exactly up to the cut;
* a recording that dies between flushes leaves exactly the chunks flushed
  before it on disk — every flush streams its frame immediately;
* archives written with no injected faults are bit-identical to a clean
  ``save_archive`` of the same run;
* silent bit flips never produce garbage chunks: strict load raises,
  salvage keeps only frames whose CRC verifies.
"""

import dataclasses
import functools
import os

import pytest

from repro.core.formats import callsite_id, callsite_label
from repro.errors import ArchiveCorruptionError
from repro.replay import RecordSession, ReplaySession
from repro.replay.durable_store import (
    RecordArchive,
    RetryPolicy,
    load_archive,
    rank_filename,
    save_archive,
)
from repro.sim import ANY_SOURCE
from tests.faults import FaultInjector, FaultPlan, InjectedCrash

NPROCS = 4
#: per sender -> 480 receives at rank 0 -> 4 chunks of <= 128: with senders
#: that interleave irregularly, enough to keep rank 0's file past the byte
#: offsets the torn-write and bit-flip cases below name (it is 256 bytes)
N_MESSAGES = 160
CHUNK_EVENTS = 128
#: a file:function label, as a PMPI tool would take one from the call stack
CALLSITE = "examples/fan_in_collector.py:collect"
FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.0)


def collector(ctx, die_at=None):
    """Fan-in: rank 0 polls a wildcard receive; others send N_MESSAGES.

    ``die_at``: rank 0 "dies" (:class:`InjectedCrash`) on that receive.
    """
    n = ctx.nprocs
    if ctx.rank == 0:
        total = N_MESSAGES * (n - 1)
        req = ctx.irecv(source=ANY_SOURCE, tag=1)
        got = 0
        while got < total:
            res = yield ctx.test(req, callsite=CALLSITE)
            if res.flag:
                got += 1
                if got == die_at:
                    raise InjectedCrash(f"killed at receive {got}")
                req = ctx.irecv(source=ANY_SOURCE, tag=1)
            else:
                yield ctx.compute(1e-6)
        ctx.cancel(req)
        return got
    for k in range(N_MESSAGES):
        yield ctx.compute((ctx.rank * 7 + k * k * 13) % 11 * 1e-6)
        ctx.isend(0, k, tag=1)


def record_session(store_dir=None, injector=None, program=collector, **kwargs):
    return RecordSession(
        program,
        nprocs=NPROCS,
        network_seed=5,
        chunk_events=CHUNK_EVENTS,
        store_dir=store_dir,
        store_opener=injector.open if injector else open,
        store_fsync=False,  # keep the sweep fast; flush still happens
        store_retry=FAST_RETRY,
        **kwargs,
    )


@pytest.fixture(scope="module")
def baseline():
    """The fault-free record: reference chunks and delivery order."""
    return record_session().run()


def delivered_events(outcomes_by_rank):
    """Per (rank, callsite): the delivered (sender, clock) sequence."""
    out = {}
    for rank, stream in outcomes_by_rank.items():
        for o in stream:
            for e in o.matched:
                out.setdefault((rank, o.callsite), []).append(e)
    return out


def salvage_as(nprocs, directory):
    """Salvage-load and re-home the chunks in a full-width archive.

    A crash before all rank files exist loses the rank count (the manifest
    is only committed at finalize), so the test re-attaches the recovered
    prefix to the known topology before replaying it.
    """
    recovered, report = load_archive(directory, mode="salvage")
    full = RecordArchive(nprocs=nprocs, meta=dict(recovered.meta))
    for rank in range(min(nprocs, recovered.nprocs)):
        for c in recovered.chunks(rank):
            full.append(rank, c)
    return full, report


def assert_prefix_recovered(baseline, recovered, report):
    """Recovered chunks must be an exact flush-order prefix per rank — under
    the label of their callsite's id where the manifest never landed."""
    for rank in range(NPROCS):
        ref = baseline.archive.chunks(rank)
        if not report.manifest_ok:
            ref = [
                dataclasses.replace(c, callsite=callsite_label(callsite_id(c.callsite)))
                for c in ref
            ]
        got = recovered.chunks(rank)
        assert got == ref[: len(got)], f"rank {rank} not a chunk prefix"


def assert_prefix_replays(baseline, recovered):
    """Replaying the recovered prefix reproduces the recorded order."""
    replay = ReplaySession(
        collector, recovered, network_seed=9, mode="salvage"
    ).run()
    ref = delivered_events(baseline.outcomes)
    got = delivered_events(replay.outcomes)
    for key, events in got.items():
        assert events == ref[key][: len(events)], f"{key} diverged"
    recovered_total = recovered.total_events()
    # labelled or named, a recovered chunk is found by the call that reads it
    assert bool(got) == bool(recovered_total)
    if recovered_total < baseline.archive.total_events():
        assert replay.truncated or sum(map(len, got.values())) == recovered_total


class TestCrashPoints:
    def total_record_bytes(self, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("size") / "rec")
        injector = FaultInjector(FaultPlan())
        record_session(store_dir=d, injector=injector).run()
        return injector.bytes_written

    def test_every_crash_point_salvages_a_replayable_prefix(
        self, baseline, tmp_path_factory
    ):
        total = self.total_record_bytes(tmp_path_factory)
        assert total > 200  # several frames' worth of storage traffic
        root = tmp_path_factory.mktemp("crash")
        crash_points = sorted(set(range(0, total, 13)) | {1, 7, total - 1})
        for budget in crash_points:
            d = str(root / f"b{budget}")
            injector = FaultInjector(FaultPlan(crash_after_bytes=budget))
            with pytest.raises(InjectedCrash):
                record_session(store_dir=d, injector=injector).run()
            assert not os.path.exists(os.path.join(d, "MANIFEST"))
            try:
                recovered, report = salvage_as(NPROCS, d)
            except Exception as exc:
                # only legitimate before any rank file exists
                assert budget == 0, f"budget {budget}: {exc}"
                continue
            assert not report.clean
            assert_prefix_recovered(baseline, recovered, report)
            assert_prefix_replays(baseline, recovered)

    def test_crash_never_loses_committed_frames(self, baseline, tmp_path):
        """A crash after N frames flushed salvages at least those frames."""
        d = str(tmp_path / "late")
        injector = FaultInjector(FaultPlan(crash_after_bytes=10_000_000))
        # no crash actually fires: budget above total traffic
        record_session(store_dir=d, injector=injector).run()
        recovered, report = load_archive(d, mode="salvage")
        assert report.clean
        assert recovered.chunks_by_rank == baseline.archive.chunks_by_rank


class TestDeathBetweenFlushes:
    """The run is killed by a BaseException one receive short of flush k:
    the k-1 chunks flushed before it are on disk, no more and no fewer."""

    @pytest.mark.parametrize("k", [1, 2, 4])  # first, mid, last (finalize) flush
    def test_death_at_flush_k_salvages_k_minus_1_chunks(
        self, baseline, tmp_path, k
    ):
        total = N_MESSAGES * (NPROCS - 1)
        assert len(baseline.archive.chunks(0)) == 4  # 128 + 128 + 128 + 96 receives
        die_at = min(k * CHUNK_EVENTS, total) - 1
        d = str(tmp_path / f"flush{k}")
        program = functools.partial(collector, die_at=die_at)
        with pytest.raises(InjectedCrash):
            record_session(store_dir=d, program=program).run()
        assert not os.path.exists(os.path.join(d, "MANIFEST"))
        recovered, report = salvage_as(NPROCS, d)
        assert not report.clean
        assert len(recovered.chunks(0)) == k - 1
        assert_prefix_recovered(baseline, recovered, report)
        assert_prefix_replays(baseline, recovered)


class TestTornWrites:
    @pytest.mark.parametrize("offset", [3, 9, 21, 64, 150])
    def test_torn_write_salvages_prefix(self, baseline, tmp_path, offset):
        d = str(tmp_path / f"torn{offset}")
        injector = FaultInjector(
            FaultPlan(target_glob=rank_filename(0), torn_write_at=offset)
        )
        with pytest.raises(InjectedCrash):
            record_session(store_dir=d, injector=injector).run()
        recovered, report = salvage_as(NPROCS, d)
        assert not report.clean
        assert_prefix_recovered(baseline, recovered, report)
        assert_prefix_replays(baseline, recovered)


class TestBitFlips:
    @pytest.mark.parametrize("offset,bit", [(12, 0), (40, 3), (97, 7), (200, 1)])
    def test_flip_detected_never_garbage(self, baseline, tmp_path, offset, bit):
        d = str(tmp_path / f"flip{offset}_{bit}")
        injector = FaultInjector(
            FaultPlan(
                target_glob=rank_filename(0), bit_flip_at=offset, bit_flip_bit=bit
            )
        )
        record_session(store_dir=d, injector=injector).run()
        assert injector.flipped, "offset beyond rank 0's record"
        with pytest.raises(ArchiveCorruptionError):
            load_archive(d, mode="strict")
        recovered, report = salvage_as(NPROCS, d)
        assert not report.clean
        assert_prefix_recovered(baseline, recovered, report)
        assert_prefix_replays(baseline, recovered)


class TestTransientErrors:
    def test_transient_eio_is_survived(self, baseline, tmp_path):
        d = str(tmp_path / "flaky")
        injector = FaultInjector(FaultPlan(transient_error_attempts=3))
        result = record_session(store_dir=d, injector=injector).run()
        assert result.archive.chunks_by_rank == baseline.archive.chunks_by_rank
        loaded, report = load_archive(d)
        assert report.clean
        assert loaded.chunks_by_rank == baseline.archive.chunks_by_rank

    def test_faultless_run_is_bit_identical_to_clean_save(
        self, baseline, tmp_path
    ):
        d_run = str(tmp_path / "run")
        d_ref = str(tmp_path / "ref")
        injector = FaultInjector(FaultPlan(transient_error_attempts=2))
        result = record_session(store_dir=d_run, injector=injector).run()
        save_archive(result.archive, d_ref, retry=FAST_RETRY)
        for rank in range(NPROCS):
            name = rank_filename(rank)
            assert (
                open(os.path.join(d_run, name), "rb").read()
                == open(os.path.join(d_ref, name), "rb").read()
            ), name


class TestGzipControllerStore:
    def test_gzip_baseline_records_durably_too(self, tmp_path):
        d = str(tmp_path / "gz")
        session = RecordSession(
            collector,
            nprocs=NPROCS,
            network_seed=5,
            chunk_events=CHUNK_EVENTS,
            gzip_baseline=True,
            store_dir=d,
            store_fsync=False,
            store_retry=FAST_RETRY,
        )
        result = session.run()
        loaded, report = load_archive(d)
        assert report.clean
        assert loaded.chunks_by_rank == result.archive.chunks_by_rank


class TestCrashedWorkloadRecording:
    """A named-workload recording that dies mid-run stays diagnosable:
    salvage replays its prefix, ``diff`` localizes where it ran out (the
    other side's manifest names the workload), strict load refuses it."""

    NPROCS = 6
    META = {
        "workload": "mcb",
        "nprocs": NPROCS,
        "network_seed": 2,
        "params": {"particles_per_rank": 30, "seed": 13},
    }

    @classmethod
    def program(cls):
        from repro.workloads import mcb

        return mcb.build_program(
            mcb.MCBConfig(nprocs=cls.NPROCS, particles_per_rank=30, seed=13)
        )

    def session(self, **kwargs):
        return RecordSession(
            self.program(),
            nprocs=self.NPROCS,
            network_seed=2,
            chunk_events=48,
            meta=self.META,
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def full_run(self):
        return self.session().run()

    @pytest.fixture(scope="class")
    def crashed_dir(self, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("crashed") / "arch")
        injector = FaultInjector(FaultPlan(crash_after_bytes=600))
        with pytest.raises(InjectedCrash):
            self.session(store_dir=d, store_opener=injector.open).run()
        return d

    def test_salvage_recovers_prefix(self, crashed_dir):
        archive, recovery = load_archive(crashed_dir, mode="salvage")
        assert not recovery.clean
        assert any(archive.chunks(r) for r in range(archive.nprocs))
        result = ReplaySession(
            self.program(), archive, network_seed=5, mode="salvage"
        ).run()
        assert result.truncated or result.total_receive_events() > 0

    def test_diff_localizes_truncation_not_crash(self, crashed_dir, full_run):
        from repro.analysis.divergence import diff_runs

        report = diff_runs(full_run, crashed_dir, label_a="full", label_b="crashed")
        # the crashed run is a strict prefix: the diff must localize where
        # each rank's record ran out instead of refusing the archive.
        assert report.events_b < report.events_a
        assert not report.identical
        assert report.per_rank  # at least one rank pinpointed
        assert "crashed" in report.render()

    def test_strict_load_still_refuses(self, crashed_dir):
        from repro.errors import RecordFormatError

        with pytest.raises(RecordFormatError):
            load_archive(crashed_dir, mode="strict")


class TestCrashedRecordingNames:
    """A crash before finalize leaves no names table: the salvaged chunks
    carry the labels of their callsites' ids, and the replay under ``diff``
    and ``explain`` files each one under the name the program calls it by."""

    META = {
        "workload": "synthetic",
        "nprocs": 4,
        "network_seed": 1,
        "params": {"messages_per_rank": 40, "fanout": 2, "seed": 3},
    }

    def session(self, **kwargs):
        from repro.workloads import make_workload

        program, _ = make_workload("synthetic", 4, **self.META["params"])
        return RecordSession(
            program, nprocs=4, network_seed=1, chunk_events=16, meta=self.META, **kwargs
        )

    def test_diff_and_explain_report_the_programs_names(self, tmp_path):
        from repro.analysis import analyze_critical_path, diff_runs

        full = self.session().run()
        names = {c.callsite for _, c in full.archive.iter_all()}
        d = str(tmp_path / "crashed")
        injector = FaultInjector(FaultPlan(crash_after_bytes=300))
        with pytest.raises(InjectedCrash):
            self.session(store_dir=d, store_opener=injector.open, store_fsync=False).run()
        archive, recovery = load_archive(d, mode="salvage")
        labels = {c.callsite for _, c in archive.iter_all()}
        assert not recovery.manifest_ok
        assert labels == {callsite_label(callsite_id(n)) for n in names}

        report = diff_runs(full, d, label_a="full", label_b="crashed")
        explained = analyze_critical_path(d, workload_fallback=self.META)
        assert 0 < report.events_b < report.events_a
        assert explained.matched == report.events_b
        assert {p.callsite for p in report.profiles} == names
        assert {c["callsite"] for c in explained.top_callsites()} == names
        assert not any(label in report.render() + explained.render() for label in labels)
