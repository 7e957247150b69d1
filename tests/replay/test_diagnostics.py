"""Replay post-mortem diagnostics."""

import pytest

from repro.errors import ReplayDivergence
from repro.replay import RecordSession, ReplaySession, ReplayController, replay_report
from repro.sim import ANY_SOURCE, Engine, Network


def collector(n_messages=3, extra_recv=0, send_count=None):
    """Fan-in program; ``send_count`` < n_messages starves the receiver."""
    sends = n_messages if send_count is None else send_count

    def program(ctx):
        n = ctx.nprocs
        if ctx.rank == 0:
            total = n_messages * (n - 1) + extra_recv
            req = ctx.irecv(source=ANY_SOURCE, tag=1)
            got = 0
            while got < total:
                res = yield ctx.test(req, callsite="sink")
                if res.flag:
                    got += 1
                    req = ctx.irecv(source=ANY_SOURCE, tag=1)
                else:
                    yield ctx.compute(1e-6)
            ctx.cancel(req)
            return got
        for k in range(sends):
            yield ctx.compute((ctx.rank % 3) * 1e-6)
            ctx.isend(0, k, tag=1)

    return program


@pytest.fixture(scope="module")
def record():
    return RecordSession(collector(), nprocs=4, network_seed=3).run()


class TestLiveReport:
    def test_report_on_healthy_finished_replay(self, record):
        controller = ReplayController(record.archive)
        engine = Engine(
            4, collector(), network=Network(seed=9), controller=controller
        )
        engine.run()
        report = replay_report(engine, controller)
        assert len(report.ranks) == 4
        assert all(r.done for r in report.ranks)
        assert report.stuck_ranks == []
        assert "finished" in report.render()

    def test_render_is_bounded(self, record):
        controller = ReplayController(record.archive)
        engine = Engine(
            4, collector(), network=Network(seed=9), controller=controller
        )
        engine.run()
        report = replay_report(engine, controller)
        text = report.render(max_ranks=2)
        assert "more ranks" in text


class TestPostMortem:
    def test_starved_replay_deadlocks_with_report(self, record):
        """Senders ship one message fewer than recorded: the receiver waits
        forever for the recorded event, and the session surfaces a
        ReplayDivergence carrying the full state report."""
        with pytest.raises(ReplayDivergence) as err:
            ReplaySession(
                collector(send_count=2), record.archive, network_seed=5
            ).run()
        message = str(err.value)
        assert "replay state report" in message
        assert "rank 0" in message
        assert "sink" in message

    def test_extra_demand_raises_record_exhausted(self, record):
        from repro.errors import RecordExhausted

        with pytest.raises(RecordExhausted):
            ReplaySession(
                collector(extra_recv=1), record.archive, network_seed=5
            ).run()


class TestDivergenceInFirstEvaluation:
    """A call whose very first evaluation diverges is still the call the
    report names: the engine marks it pending before asking the controller."""

    @staticmethod
    def waiting_sink(ctx):
        if ctx.rank == 0:
            req = ctx.irecv(source=ANY_SOURCE, tag=1)
            yield ctx.wait(req, callsite="sink")  # recorded as a Test poll
        else:
            yield ctx.compute(1e-6)
            ctx.isend(0, 0, tag=1)

    def test_report_names_the_diverging_call(self, record):
        assert record.outcomes[0][0].matched == ()  # the record opens unmatched
        controller = ReplayController(record.archive)
        engine = Engine(
            4, self.waiting_sink, network=Network(seed=9), controller=controller
        )
        with pytest.raises(ReplayDivergence, match="expects an unmatched test"):
            engine.run()
        assert engine.procs[0].mf_calls == 1  # it was the first evaluation
        rank0 = replay_report(engine, controller).ranks[0]
        assert (rank0.blocked_kind, rank0.blocked_callsite) == ("wait", "sink")
        assert "parked in wait at 'sink'" in rank0.describe()
