"""Sub-communicators: split semantics, translation, collectives, replay."""

import pytest

from repro.errors import CommunicatorError
from repro.replay import RecordSession, ReplaySession, assert_replay_matches
from repro.sim import ANY_SOURCE
from tests.sim.helpers import run_program


class TestSplit:
    def test_even_odd_split(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2)
            return (sub.rank, sub.nprocs, sub.members)

        engine, _ = run_program(6, program)
        for p in engine.procs:
            local, size, members = p.result
            assert size == 3
            assert members[local] == p.rank
            assert all(m % 2 == p.rank % 2 for m in members)

    def test_key_reorders_ranks(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=0, key=-ctx.rank)
            return sub.members

        engine, _ = run_program(4, program)
        assert engine.procs[0].result == (3, 2, 1, 0)

    def test_undefined_color_returns_none(self):
        def program(ctx):
            sub = yield from ctx.comm_split(
                color=None if ctx.rank == 0 else 1
            )
            if sub is not None:
                yield from sub.barrier()
            return sub is None

        engine, _ = run_program(4, program)
        assert [p.result for p in engine.procs] == [True, False, False, False]

    def test_context_ids_agree_across_ranks(self):
        def program(ctx):
            a = yield from ctx.comm_split(color=0)
            b = yield from ctx.comm_split(color=ctx.rank % 2)
            return (a.context_id, b.context_id)

        engine, _ = run_program(4, program)
        ids = {p.result for p in engine.procs}
        assert len(ids) == 1
        assert ids.pop() == (1, 2)

    def test_nested_split(self):
        def program(ctx):
            half = yield from ctx.comm_split(color=ctx.rank // 4)
            quarter = yield from half.comm_split(color=half.rank // 2)
            return (half.nprocs, quarter.nprocs, quarter.members)

        engine, _ = run_program(8, program)
        for p in engine.procs:
            halves, quarters, members = p.result
            assert halves == 4 and quarters == 2
            assert p.rank in members


class TestCommunication:
    def test_p2p_uses_local_ranks(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2)
            if sub.rank == 0:
                sub.isend(1, f"from-world-{ctx.rank}", tag=5)
                yield ctx.compute(0)
                return None
            if sub.rank == 1:
                msg = yield from sub.recv(source=0, tag=5)
                return msg.payload
            yield ctx.compute(0)

        engine, _ = run_program(6, program)
        assert engine.procs[3].result == "from-world-1"  # odd group: 1,3,5

    def test_traffic_isolated_between_communicators(self):
        """Same user tag on two sub-communicators must not cross."""

        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2)
            peer = (sub.rank + 1) % sub.nprocs
            sub.isend(peer, ("group", ctx.rank % 2), tag=7)
            msg = yield from sub.recv(
                source=(sub.rank - 1) % sub.nprocs, tag=7
            )
            return msg.payload[1] == ctx.rank % 2

        engine, _ = run_program(8, program)
        assert all(p.result for p in engine.procs)

    def test_any_tag_rejected_on_subcomm(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=0)
            from repro.sim.datatypes import ANY_TAG

            with pytest.raises(CommunicatorError):
                sub.irecv(source=ANY_SOURCE, tag=ANY_TAG)
            return True

        engine, _ = run_program(2, program)
        assert all(p.result for p in engine.procs)

    def test_bad_local_rank_rejected(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=0)
            with pytest.raises(CommunicatorError):
                sub.isend(99, "x")
            return True

        engine, _ = run_program(3, program)
        assert all(p.result for p in engine.procs)


class TestCollectives:
    def test_allreduce_per_group(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2)
            total = yield from sub.allreduce(ctx.rank)
            return total

        engine, _ = run_program(8, program)
        for p in engine.procs:
            expected = sum(r for r in range(8) if r % 2 == p.rank % 2)
            assert p.result == expected

    def test_bcast_within_group(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank // 2)
            value = f"g{ctx.rank // 2}" if sub.rank == 0 else None
            got = yield from sub.bcast(value)
            return got

        engine, _ = run_program(6, program)
        for p in engine.procs:
            assert p.result == f"g{p.rank // 2}"

    def test_gather_returns_local_order(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2, key=-ctx.rank)
            got = yield from sub.gather(ctx.rank)
            return got

        engine, _ = run_program(6, program)
        # odd group reordered by key: world ranks (5, 3, 1)
        assert engine.procs[5].result == [5, 3, 1]

    def test_alltoall_within_group(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2)
            got = yield from sub.alltoall(
                [sub.rank * 10 + j for j in range(sub.nprocs)]
            )
            return (sub.rank, got)

        engine, _ = run_program(4, program)
        for p in engine.procs:
            my_local, got = p.result
            assert got == [src * 10 + my_local for src in range(2)]


class TestRecordReplay:
    def test_subcomm_program_replays_exactly(self):
        def program(ctx):
            sub = yield from ctx.comm_split(color=ctx.rank % 2)
            checksum = 0.0
            reqs = [sub.irecv(source=ANY_SOURCE, tag=3) for _ in range(sub.nprocs - 1)]
            for peer in range(sub.nprocs):
                if peer != sub.rank:
                    yield ctx.compute((ctx.rank * 13 % 5) * 1e-6)
                    sub.isend(peer, float(ctx.rank), tag=3)
            got = 0
            while got < len(reqs):
                res = yield sub.waitsome(reqs, callsite="sub:poll")
                for msg in res.messages:
                    if msg is not None:
                        got += 1
                        checksum = checksum * (1.0 + 1e-10) + msg.payload
            total = yield from sub.allreduce(checksum)
            return total

        record = RecordSession(program, nprocs=8, network_seed=4).run()
        for seed in (5, 6):
            replayed = ReplaySession(program, record.archive, network_seed=seed).run()
            assert_replay_matches(record, replayed)
