"""Application-level out-of-order receives — the Figure 3 scenario.

Two messages with identical (source, tag) are MPI-matched in send order,
but the application can observe their completions in the opposite order by
testing the second request first. This is the paper's argument that
(source, tag) cannot identify messages and (rank, clock) can.
"""

from repro.sim import ANY_SOURCE, ANY_TAG
from tests.sim.helpers import run_program


def make_programs():
    observed = {}

    def rank_x(ctx):  # the receiver of Figure 3
        req1 = ctx.irecv(source=ANY_SOURCE, tag=ANY_TAG)
        req2 = ctx.irecv(source=ANY_SOURCE, tag=ANY_TAG)
        # wait until both are matched at the MPI level
        res = yield ctx.waitall([req1, req2], callsite="both")
        observed["result"] = [(m.payload, m.clock) for m in res.messages]
        # MPI-level matching must have followed send order:
        observed["req1_payload"] = req1.message.payload
        observed["req2_payload"] = req2.message.payload

    def rank_y(ctx):
        ctx.isend(0, "msg1", tag=1)
        ctx.isend(0, "msg2", tag=1)
        yield ctx.compute(0)

    return [rank_x, rank_y], observed


class TestFigure3:
    def test_mpi_matching_follows_send_order(self):
        programs, observed = make_programs()
        run_program(2, programs)
        assert observed["req1_payload"] == "msg1"
        assert observed["req2_payload"] == "msg2"

    def test_app_can_observe_msg2_first(self):
        """Testing req2 before req1 notifies msg2 first, even though both
        share (source=Y, tag=1)."""
        seen = {}

        def rank_x(ctx):
            req1 = ctx.irecv(source=1, tag=1)
            req2 = ctx.irecv(source=1, tag=1)
            order = []
            pending = {id(req1): req1, id(req2): req2}
            while pending:
                # deliberately poll req2 first
                for req in sorted(pending.values(), key=lambda r: -r.req_id):
                    res = yield ctx.test(req, callsite="poll")
                    if res.flag:
                        order.append(res.message.payload)
                        del pending[id(req)]
                        break
                else:
                    yield ctx.compute(1e-6)
            seen["order"] = order

        def rank_y(ctx):
            ctx.isend(0, "msg1", tag=1)
            ctx.isend(0, "msg2", tag=1)
            yield ctx.compute(0)

        run_program(2, [rank_x, rank_y])
        assert seen["order"] == ["msg2", "msg1"]

    def test_clocks_disambiguate_identical_source_tag(self):
        """The piggybacked clocks of msg1/msg2 differ although (source, tag)
        are identical — the CDC message identifier works."""
        programs, observed = make_programs()
        run_program(2, programs)
        clocks = [c for _, c in observed["result"]]
        assert clocks[0] != clocks[1]
