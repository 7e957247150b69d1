"""Application-facing API: callsites, sugar helpers, collectives."""

import pytest

from repro.errors import CommunicatorError
from repro.sim.process import Compute, MFResult
from tests.sim.helpers import run_program


class TestYieldables:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)

    def test_empty_mf_call_rejected(self):
        def program(ctx):
            with pytest.raises(ValueError):
                ctx.testsome([])
            yield ctx.compute(0)

        run_program(1, program)

    def test_mfresult_message_helper(self):
        assert MFResult(flag=False).message is None

    def test_bad_source_rank_rejected(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                ctx.irecv(source=77)
            yield ctx.compute(0)

        run_program(2, program)


class TestCallsites:
    def test_auto_callsite_uses_caller_location(self):
        labels = {}

        def program(ctx):
            if ctx.rank == 0:
                ctx.isend(1, "x")
                yield ctx.compute(0)
            else:
                req = ctx.irecv()
                call = ctx.wait(req)
                labels["cs"] = call.callsite
                yield call

        run_program(2, program)
        assert labels["cs"].startswith("test_process_api.py:")

    def test_explicit_callsite_wins(self):
        labels = {}

        def program(ctx):
            if ctx.rank == 0:
                ctx.isend(1, "x")
                yield ctx.compute(0)
            else:
                call = ctx.wait(ctx.irecv(), callsite="my-site")
                labels["cs"] = call.callsite
                yield call

        run_program(2, program)
        assert labels["cs"] == "my-site"

    def test_distinct_lines_distinct_callsites(self):
        sites = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.isend(1, "a")
                ctx.isend(1, "b")
                yield ctx.compute(0)
            else:
                c1 = ctx.wait(ctx.irecv())
                c2 = ctx.wait(ctx.irecv())
                sites.extend([c1.callsite, c2.callsite])
                yield c1
                yield c2

        run_program(2, program)
        assert sites[0] != sites[1]


class TestCollectives:
    @pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
    def test_bcast_reaches_everyone(self, nprocs):
        def program(ctx):
            value = "payload" if ctx.rank == 0 else None
            got = yield from ctx.bcast(value)
            return got

        engine, _ = run_program(nprocs, program)
        assert all(p.result == "payload" for p in engine.procs)

    @pytest.mark.parametrize("root", [0, 2])
    def test_gather_collects_in_rank_order(self, root):
        def program(ctx):
            got = yield from ctx.gather(ctx.rank * 2, root=root)
            return got

        engine, _ = run_program(5, program)
        for p in engine.procs:
            if p.rank == root:
                assert p.result == [0, 2, 4, 6, 8]
            else:
                assert p.result is None

    @pytest.mark.parametrize("nprocs", [2, 7])
    def test_allreduce_sum(self, nprocs):
        def program(ctx):
            total = yield from ctx.allreduce(ctx.rank + 1)
            return total

        engine, _ = run_program(nprocs, program)
        expected = sum(range(1, nprocs + 1))
        assert all(p.result == expected for p in engine.procs)

    def test_allreduce_custom_op(self):
        def program(ctx):
            top = yield from ctx.allreduce(ctx.rank, op=max)
            return top

        engine, _ = run_program(4, program)
        assert all(p.result == 3 for p in engine.procs)

    def test_barrier_synchronizes(self):
        def program(ctx):
            yield ctx.compute(ctx.rank * 1e-4)
            yield from ctx.barrier()
            return ctx.now

        engine, _ = run_program(4, program)
        slowest_work = 3 * 1e-4
        assert all(p.result >= slowest_work for p in engine.procs)

    def test_nonroot_bcast_of_none_ok(self):
        def program(ctx):
            got = yield from ctx.bcast(41 if ctx.rank == 0 else None, root=0)
            return got + 1

        engine, _ = run_program(3, program)
        assert all(p.result == 42 for p in engine.procs)

    @pytest.mark.parametrize("root", [0, 1])
    def test_reduce_only_at_root(self, root):
        def program(ctx):
            return (yield from ctx.reduce(ctx.rank + 1, root=root))

        engine, _ = run_program(4, program)
        for p in engine.procs:
            assert p.result == (10 if p.rank == root else None)

    def test_scatter_distributes_by_rank(self):
        def program(ctx):
            values = [f"item-{r}" for r in range(ctx.nprocs)] if ctx.rank == 0 else None
            got = yield from ctx.scatter(values)
            return got

        engine, _ = run_program(4, program)
        assert [p.result for p in engine.procs] == [f"item-{r}" for r in range(4)]

    def test_scatter_requires_one_value_per_rank(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                # drive the generator to hit the root-side length check
                for _ in ctx.scatter([1, 2, 3]):
                    pass
            yield ctx.compute(0)

        run_program(1, program)

    @pytest.mark.parametrize("nprocs", [2, 5])
    def test_alltoall_personalized_exchange(self, nprocs):
        def program(ctx):
            values = [ctx.rank * 100 + dest for dest in range(ctx.nprocs)]
            got = yield from ctx.alltoall(values)
            return got

        engine, _ = run_program(nprocs, program)
        for p in engine.procs:
            assert p.result == [src * 100 + p.rank for src in range(nprocs)]

    def test_alltoall_replays(self):
        """alltoall's wildcard receives record and replay exactly."""
        from repro.replay import RecordSession, ReplaySession, assert_replay_matches

        def program(ctx):
            yield ctx.compute(ctx.rank * 1e-6)
            got = yield from ctx.alltoall(list(range(ctx.nprocs)))
            return got

        record = RecordSession(program, nprocs=5, network_seed=1).run()
        replayed = ReplaySession(program, record.archive, network_seed=9).run()
        assert_replay_matches(record, replayed)
