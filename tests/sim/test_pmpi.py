"""Natural matching-function semantics through the controller seam."""

import pytest

from repro.core.events import MFKind, MFOutcome
from repro.errors import CommunicatorError
from repro.replay import RecordSession, ReplaySession
from repro.sim import ANY_SOURCE
from repro.sim.datatypes import Request
from repro.sim.process import MFCall, MFResult
from tests.sim.helpers import run_program


def run_collector(body, nprocs=3, seed=0, **kwargs):
    """rank 0 runs `body`; others send one tagged message each."""

    def program(ctx):
        if ctx.rank == 0:
            result = yield from body(ctx)
            return result
        yield ctx.compute(ctx.rank * 1e-6)
        ctx.isend(0, ctx.rank, tag=1)

    engine, _ = run_program(nprocs, program, network_seed=seed, **kwargs)
    return engine.procs[0].result


class TestTestFamily:
    def test_test_unmatched_then_matched(self):
        def body(ctx):
            req = ctx.irecv(source=ANY_SOURCE, tag=1)
            flags = []
            while True:
                res = yield ctx.test(req, callsite="t")
                flags.append(res.flag)
                if res.flag:
                    break
                yield ctx.compute(1e-6)
            # drain the other sender so the run ends cleanly
            msg = yield from ctx.recv(source=ANY_SOURCE, tag=1)
            return flags

        flags = run_collector(body)
        assert flags[-1] is True
        assert all(f is False for f in flags[:-1])

    def test_testsome_returns_all_ready(self):
        def body(ctx):
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=1) for _ in range(2)]
            got = []
            while len(got) < 2:
                res = yield ctx.testsome(reqs, callsite="ts")
                got.extend(m.payload for m in res.messages if m is not None)
                yield ctx.compute(5e-5)  # long poll gap: both arrive together
            return sorted(got)

        assert run_collector(body) == [1, 2]

    def test_testall_is_all_or_nothing(self):
        def body(ctx):
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=1) for _ in range(2)]
            partial_seen = False
            while True:
                res = yield ctx.testall(reqs, callsite="ta")
                if res.flag:
                    return (partial_seen, len(res.messages))
                assert res.messages == ()
                partial_seen = True
                yield ctx.compute(1e-6)

        _, delivered = run_collector(body)
        assert delivered == 2

    def test_test_on_send_request_completes_immediately(self):
        def body(ctx):
            req = ctx.isend(1, "x", tag=9)
            res = yield ctx.test(req, callsite="snd")
            # the irecvs from other ranks must still be drained
            for _ in range(2):
                yield from ctx.recv(source=ANY_SOURCE, tag=1)
            return res.flag

        assert run_collector(body) is True


class TestWaitFamily:
    def test_wait_blocks_until_match(self):
        def body(ctx):
            req = ctx.irecv(source=2, tag=1)
            res = yield ctx.wait(req, callsite="w")
            yield from ctx.recv(source=1, tag=1)
            return res.message.src

        assert run_collector(body) == 2

    def test_waitany_returns_exactly_one(self):
        def body(ctx):
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=1) for _ in range(2)]
            res = yield ctx.waitany(reqs, callsite="wa")
            first = res.message.payload
            res2 = yield ctx.waitany(reqs, callsite="wa")
            return sorted([first, res2.message.payload])

        assert run_collector(body) == [1, 2]

    def test_waitall_delivers_in_request_order(self):
        """Statuses-array semantics: request order, not arrival order."""

        def body(ctx):
            r_from_2 = ctx.irecv(source=2, tag=1)
            r_from_1 = ctx.irecv(source=1, tag=1)
            res = yield ctx.waitall([r_from_2, r_from_1], callsite="wall")
            return [m.src for m in res.messages]

        assert run_collector(body) == [2, 1]

    def test_waitsome_delivers_available_subset(self):
        def body(ctx):
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=1) for _ in range(2)]
            got = []
            while len(got) < 2:
                res = yield ctx.waitsome(reqs, callsite="ws")
                got.extend(m.payload for m in res.messages if m is not None)
            return sorted(got)

        assert run_collector(body) == [1, 2]

    def test_mixed_send_recv_wait_rejected(self):
        def body(ctx):
            send_req = ctx.isend(1, "x", tag=9)
            recv_req = ctx.irecv(source=ANY_SOURCE, tag=1)
            with pytest.raises(CommunicatorError):
                ctx.waitall([send_req, recv_req])
            ctx.cancel(recv_req)
            for _ in range(2):
                yield from ctx.recv(source=ANY_SOURCE, tag=1)
            return True

        assert run_collector(body) is True


class TestClockPropagation:
    def test_clocks_update_on_delivery(self):
        def body(ctx):
            start = ctx.clock
            yield from ctx.recv(source=ANY_SOURCE, tag=1)
            yield from ctx.recv(source=ANY_SOURCE, tag=1)
            return (start, ctx.clock)

        start, end = run_collector(body)
        assert end > start

    def test_result_messages_follow_delivery_order(self):
        """MFResult.messages order == clock update order == recorded order."""

        def body(ctx):
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=1) for _ in range(2)]
            clocks = []
            got = 0
            while got < 2:
                res = yield ctx.testsome(reqs, callsite="ord")
                for m in res.messages:
                    if m is not None:
                        got += 1
                        clocks.append(m.clock)
            return clocks

        clocks = run_collector(body)
        assert len(clocks) == 2


class TestMFCallValidation:
    """One pass over the request set validates it and learns ``has_recv``."""

    WAITS = [k for k in MFKind if not k.is_test]
    TESTS = [k for k in MFKind if k.is_test]

    @staticmethod
    def reqs(*is_recv):
        return tuple(Request(owner=0, is_recv=flag) for flag in is_recv)

    @pytest.mark.parametrize("kind", WAITS)
    @pytest.mark.parametrize("shape", [(True, False), (False, True), (False, False, True)])
    def test_mixed_wait_sets_rejected(self, kind, shape):
        with pytest.raises(CommunicatorError, match="mixed send\\+receive"):
            MFCall(kind, self.reqs(*shape), "cs")

    @pytest.mark.parametrize("kind", TESTS)
    def test_mixed_test_sets_allowed(self, kind):
        assert MFCall(kind, self.reqs(False, True), "cs").has_recv
        assert MFCall(kind, self.reqs(True, False), "cs").has_recv

    @pytest.mark.parametrize("kind", list(MFKind))
    def test_has_recv(self, kind):
        assert MFCall(kind, self.reqs(True, True), "cs").has_recv
        assert not MFCall(kind, self.reqs(False, False), "cs").has_recv

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            MFCall(MFKind.TEST, (), "cs")

    def test_has_recv_is_not_part_of_identity(self):
        reqs = self.reqs(True)
        assert MFCall(MFKind.TEST, reqs, "cs") == MFCall(MFKind.TEST, reqs, "cs")
        assert "has_recv" not in repr(MFCall(MFKind.TEST, reqs, "cs"))


def poller(ctx):
    """rank 0 polls one callsite with Test, another with Testsome, and a
    third with both kinds in turn; every result it was handed is returned."""
    if ctx.rank != 0:
        yield ctx.compute(2e-5)
        ctx.isend(0, ctx.rank, tag=1)
        return None
    results = []
    req = ctx.irecv(source=ANY_SOURCE, tag=1)
    others = [ctx.irecv(source=ANY_SOURCE, tag=2)]
    got = 0
    while got < ctx.nprocs - 1:
        res = yield ctx.test(req, callsite="poll")
        results.append(res)
        if res.flag:
            got += 1
            req = ctx.irecv(source=ANY_SOURCE, tag=1)
        results.append((yield ctx.testsome(others, callsite="some")))
        results.append((yield ctx.test(others[0], callsite="both")))
        results.append((yield ctx.testsome(others, callsite="both")))
        yield ctx.compute(1e-6)
    ctx.cancel(req)
    ctx.cancel(others[0])
    return results


class TestSharedUnmatchedInstances:
    """Unmatched polls hand out shared frozen objects; nothing can tell."""

    def test_results_equal_fresh_ones(self):
        engine, _ = run_program(3, poller, network_seed=1)
        results = engine.procs[0].result
        unmatched = [r for r in results if not r.flag]
        assert len(unmatched) > 10
        assert all(r == MFResult(flag=False) for r in unmatched)
        assert all(r.indices == () and r.messages == () and r.message is None for r in unmatched)
        assert len({id(r) for r in unmatched}) == 1
        matched = [r for r in results if r.flag]
        assert len(matched) == 2 and all(len(r.messages) == 1 for r in matched)

    def test_outcomes_equal_fresh_ones_per_callsite_and_kind(self):
        kept = RecordSession(poller, nprocs=3, network_seed=1, keep_outcomes=True).run()
        stream = kept.outcomes[0]
        unmatched = [o for o in stream if not o.matched]
        assert {(o.callsite, o.kind) for o in unmatched} == {
            ("poll", MFKind.TEST),
            ("some", MFKind.TESTSOME),
            ("both", MFKind.TEST),
            ("both", MFKind.TESTSOME),
        }
        assert all(o == MFOutcome(o.callsite, o.kind, ()) for o in unmatched)
        # one callsite polled by two kinds keeps both straight, in order
        both = [o.kind for o in stream if o.callsite == "both"]
        assert both[:4] == [MFKind.TEST, MFKind.TESTSOME] * 2

    def test_kept_streams_survive_replay(self):
        kept = RecordSession(poller, nprocs=3, network_seed=1, keep_outcomes=True).run()
        kept_replay = ReplaySession(
            poller, kept.archive, network_seed=8, keep_outcomes=True
        ).run()
        assert kept.outcomes == kept_replay.outcomes
        seen = lambda run: [(r.flag, r.indices, r.payloads) for r in run.app_results[0]]
        assert seen(kept) == seen(kept_replay)

    def test_wait_that_delivers_nothing_records_nothing(self):
        def program(ctx):
            if ctx.rank == 0:
                send = ctx.isend(1, "x", tag=1)
                first = yield ctx.wait(send, callsite="w")
                again = yield ctx.wait(send, callsite="w")  # already delivered
                probe = yield ctx.test(send, callsite="t")
                return first, again, probe
            yield from ctx.recv(source=0, tag=1)

        kept = RecordSession(program, nprocs=2, network_seed=0).run()
        first, again, probe = kept.app_results[0]
        assert first.flag and first.indices == (0,) and first.messages == (None,)
        assert again == MFResult(flag=True) == probe
        assert kept.outcomes[0] == []
