"""Recording controller: chunking, overhead charging, gzip baseline."""

from repro.replay import (
    GzipRecordingController,
    RecordSession,
    RecordingController,
)
from repro.sim import ANY_SOURCE, Engine, Network


def fanin_program(messages_per_sender=6):
    def program(ctx):
        n = ctx.nprocs
        if ctx.rank == 0:
            total = messages_per_sender * (n - 1)
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=1) for _ in range(n - 1)]
            got = 0
            while got < total:
                res = yield ctx.testsome(reqs, callsite="sink")
                for i, m in zip(res.indices, res.messages):
                    if m is None:
                        continue
                    got += 1
                    reqs[i] = ctx.irecv(source=ANY_SOURCE, tag=1)
                yield ctx.compute(1e-6)
            for r in reqs:
                ctx.cancel(r)
        else:
            for k in range(messages_per_sender):
                yield ctx.compute((ctx.rank % 3) * 1e-6)
                ctx.isend(0, k, tag=1)

    return program


class TestRecording:
    def test_archive_captures_all_receives(self):
        result = RecordSession(fanin_program(), nprocs=4, network_seed=2).run()
        assert result.archive.total_events() == 18

    def test_chunking_respects_limit(self):
        result = RecordSession(
            fanin_program(), nprocs=4, network_seed=2, chunk_events=4
        ).run()
        chunks = result.archive.chunks(0)
        assert len(chunks) >= 4
        assert all(c.num_events <= 4 + 2 for c in chunks)  # group slack

    def test_outcomes_match_archive(self):
        result = RecordSession(fanin_program(), nprocs=4, network_seed=2).run()
        stream_events = result.total_receive_events()
        assert stream_events == result.archive.total_events()

    def test_recording_adds_virtual_time_overhead(self):
        from repro.replay import BaselineSession

        base = BaselineSession(fanin_program(), nprocs=4, network_seed=2).run()
        rec = RecordSession(fanin_program(), nprocs=4, network_seed=2).run()
        assert rec.stats.virtual_time > base.stats.virtual_time

    def test_queue_stats_exposed(self):
        result = RecordSession(fanin_program(), nprocs=4, network_seed=2).run()
        stats = result.controller.queue_stats()
        assert set(stats) == {0, 1, 2, 3}

    def test_replay_assist_flag_controls_column(self):
        with_assist = RecordSession(
            fanin_program(), nprocs=3, network_seed=1, replay_assist=True
        ).run()
        without = RecordSession(
            fanin_program(), nprocs=3, network_seed=1, replay_assist=False
        ).run()
        assert all(
            c.sender_sequence is not None for c in with_assist.archive.chunks(0)
        )
        assert all(c.sender_sequence is None for c in without.archive.chunks(0))
        # each layout stores its own facts (DESIGN.md §5.9): the paper's the
        # clock-order permutation and the first-clock hints its LMC replay
        # reads, the assist one the sender column those are derived from —
        # neither costs more than twice the other
        assert all(
            c.diff.is_identity() and not c.sender_min_clocks
            for c in with_assist.archive.chunks(0)
        )
        assert all(
            len(c.sender_min_clocks) == c.epoch.num_ranks > 0
            for c in without.archive.chunks(0)
        )
        assert any(c.diff.num_moved for c in without.archive.chunks(0))
        a, b = with_assist.archive.total_bytes(), without.archive.total_bytes()
        assert a <= b * 2 and b <= a * 2

    def test_keep_outcomes_false_drops_streams(self):
        controller = RecordingController(3, keep_outcomes=False)
        engine = Engine(3, fanin_program(), network=Network(seed=1), controller=controller)
        engine.run()
        assert controller.outcomes_of(0) == []
        assert controller.archive.total_events() > 0


class TestChunkMarkers:
    """``record.chunk`` trace markers carry each chunk's stored frame body
    length — the frame the durable store just wrote, or the one
    the archive builds for itself — and nothing sizes the archive by
    serializing or deflating a chunk a second time."""

    def run(self, monkeypatch, **kwargs):
        import zlib

        import repro.core.formats as formats
        import repro.replay.durable_store as durable_store

        calls, deflates = [], []
        real = formats.encode_frame_payload
        real_deflate = zlib.compressobj

        def counted(chunk):
            calls.append(1)
            return real(chunk)

        def counted_deflate(*args, **kw):
            deflates.append(args)
            return real_deflate(*args, **kw)

        monkeypatch.setattr(durable_store, "encode_frame_payload", counted)
        monkeypatch.setattr(zlib, "compressobj", counted_deflate)
        result = RecordSession(
            fanin_program(12), nprocs=4, network_seed=2, chunk_events=4,
            telemetry=True, **kwargs,
        ).run()
        # RunStats and every later reader of the size: no further work
        assert result.run_stats.stored_bytes == result.archive.total_bytes()
        monkeypatch.undo()
        markers = [e.attrs for e in result.registry.events if e.name == "record.chunk"]
        return result, markers, calls, deflates

    def expected(self, result):
        import zlib

        from repro.core.compression import ZLIB_LEVEL
        from repro.core.formats import encode_frame_payload

        # a frame's body is a raw deflate stream — zlib's, less its 2-byte
        # header and 4-byte Adler-32 — or the payload, where that is shorter
        return sorted(
            (rank, chunk.callsite, chunk.num_events, min(
                len(payload), len(zlib.compress(payload, ZLIB_LEVEL)) - 6))
            for rank in range(4)
            for chunk in result.archive.chunks(rank)
            for payload in [encode_frame_payload(chunk)]
        )

    def observed(self, markers):
        return sorted(
            (m["rank"], m["callsite"], m["events"], m["stored_bytes"]) for m in markers
        )

    def test_one_serialization_per_flushed_chunk_with_a_store(self, tmp_path, monkeypatch):
        result, markers, calls, deflates = self.run(
            monkeypatch, store_dir=str(tmp_path / "rec"), store_fsync=False
        )
        assert len(markers) >= 4
        assert calls == [1] * len(markers)
        assert len(deflates) == len(markers)
        assert self.observed(markers) == self.expected(result)

    def test_markers_without_a_store_serialize_once_themselves(self, monkeypatch):
        result, markers, calls, deflates = self.run(monkeypatch)
        assert calls == [1] * len(markers)
        assert len(deflates) == len(markers)
        assert self.observed(markers) == self.expected(result)


class TestGzipBaseline:
    def test_storage_accounts_raw_format(self):
        controller = GzipRecordingController(4)
        engine = Engine(4, fanin_program(), network=Network(seed=2), controller=controller)
        engine.run()
        assert controller.total_storage_bytes() > 0
        assert controller.storage_bytes(0) > controller.storage_bytes(1)

    def test_gzip_mode_is_cheaper_in_time_than_cdc(self):
        cdc = RecordSession(fanin_program(), nprocs=4, network_seed=2).run()
        gz = RecordSession(
            fanin_program(), nprocs=4, network_seed=2, gzip_baseline=True
        ).run()
        assert gz.stats.virtual_time <= cdc.stats.virtual_time
