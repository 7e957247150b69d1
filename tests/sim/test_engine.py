"""Discrete-event engine: scheduling, determinism, deadlock detection."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import ANY_SOURCE, Engine, Network
from tests.sim.helpers import run_program


class TestBasics:
    def test_pingpong(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.isend(1, "ping", tag=1)
                msg = yield from ctx.recv(source=1, tag=2)
                assert msg.payload == "pong"
            else:
                msg = yield from ctx.recv(source=0, tag=1)
                assert msg.payload == "ping"
                ctx.isend(0, "pong", tag=2)

        _, stats = run_program(2, program)
        assert stats.total_messages == 2

    def test_program_return_value_captured(self):
        def program(ctx):
            yield ctx.compute(1e-6)
            return ctx.rank * 10

        engine, _ = run_program(3, program)
        assert [p.result for p in engine.procs] == [0, 10, 20]

    def test_compute_advances_local_time(self):
        def program(ctx):
            yield ctx.compute(0.5)

        _, stats = run_program(1, program)
        assert stats.virtual_time >= 0.5

    def test_mpmd_programs(self):
        def sender(ctx):
            ctx.isend(1, 42)
            yield ctx.compute(0)

        def receiver(ctx):
            msg = yield from ctx.recv(source=0)
            assert msg.payload == 42

        engine = Engine(2, [sender, receiver])
        engine.run()

    def test_stats_accounting(self):
        def program(ctx):
            req = ctx.irecv(source=(ctx.rank + 1) % ctx.nprocs)
            ctx.isend((ctx.rank - 1) % ctx.nprocs, ctx.rank)
            yield ctx.wait(req)

        _, stats = run_program(4, program)
        assert stats.total_messages == 4
        assert stats.total_mf_calls == 4
        assert len(stats.per_rank_time) == 4

        def fanout(ctx):
            if ctx.rank == 0:
                sources = []
                for _ in range(ctx.nprocs - 1):
                    msg = yield from ctx.recv(source=ANY_SOURCE)
                    sources.append(msg.src)
                return sorted(sources)
            yield ctx.compute(ctx.rank * 1e-6)
            ctx.isend(0, ctx.rank)

        engine, stats = run_program(4, fanout, network_seed=1)
        assert stats.total_messages == 3
        assert engine.procs[0].result == [1, 2, 3]  # three deliveries to rank 0
        assert all(p.done for p in engine.procs)  # every rank was resumed


class TestDeterminism:
    def _collect_order(self, seed):
        def program(ctx):
            if ctx.rank == 0:
                order = []
                for _ in range(ctx.nprocs - 1):
                    msg = yield from ctx.recv(source=ANY_SOURCE)
                    order.append(msg.src)
                return tuple(order)
            yield ctx.compute(((ctx.rank * 37) % 5) * 1e-7)
            ctx.isend(0, b"x" * 200)

        engine, _ = run_program(6, program, network_seed=seed)
        return engine.procs[0].result

    def test_same_seed_identical(self):
        assert self._collect_order(3) == self._collect_order(3)

    def test_different_seeds_eventually_differ(self):
        orders = {self._collect_order(s) for s in range(8)}
        assert len(orders) > 1


class TestErrorPaths:
    def test_deadlock_detected(self):
        def program(ctx):
            yield ctx.wait(ctx.irecv(source=ANY_SOURCE))  # nobody sends

        with pytest.raises(DeadlockError) as err:
            run_program(2, program)
        assert err.value.blocked_ranks == (0, 1)

    def test_bad_destination_rejected(self):
        def program(ctx):
            ctx.isend(99, "x")
            yield ctx.compute(0)

        with pytest.raises(SimulationError):
            run_program(2, program)

    def test_bad_yield_rejected(self):
        def program(ctx):
            yield "not an op"

        with pytest.raises(SimulationError):
            run_program(1, program)

    def test_max_events_guard(self):
        def program(ctx):
            while True:
                yield ctx.compute(1e-9)

        with pytest.raises(SimulationError):
            run_program(1, program, max_events=100)

    def test_zero_procs_rejected(self):
        with pytest.raises(SimulationError):
            Engine(0, lambda ctx: iter(()))


class TestVirtualTime:
    def test_messages_arrive_after_send_time(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1e-3)
                ctx.isend(1, "late")
            else:
                msg = yield from ctx.recv(source=0)
                return ctx.now

        engine, _ = run_program(2, program, network_seed=0)
        assert engine.procs[1].result >= 1e-3

    def test_engine_now_tracks_event_time(self):
        def program(ctx):
            yield ctx.compute(0.25)

        engine = Engine(1, program, network=Network(seed=0))
        engine.run()
        assert engine.now >= 0.25
