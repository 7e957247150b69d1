"""Seed-search utilities."""

from repro.analysis.seed_search import sweep_seeds
from repro.replay.session import RecordSession
from repro.sim import ANY_SOURCE


def distinct_outcomes(program, nprocs, seeds):
    """Group seeds by the tuple of per-rank application results."""
    groups = {}
    for seed in seeds:
        run = RecordSession(program, nprocs=nprocs, network_seed=seed).run()
        key = tuple(repr(run.app_results[r]) for r in sorted(run.app_results))
        groups.setdefault(key, []).append(seed)
    return groups


def order_sensitive_program(ctx):
    if ctx.rank == 0:
        order = []
        for _ in range(ctx.nprocs - 1):
            msg = yield from ctx.recv(source=ANY_SOURCE)
            order.append(msg.src)
        return tuple(order)
    yield ctx.compute((ctx.rank * 13 % 5) * 1e-6)
    ctx.isend(0, b"x" * 150)


def crashing_program(ctx):
    if ctx.rank == 0:
        first = yield from ctx.recv(source=ANY_SOURCE)
        second = yield from ctx.recv(source=ANY_SOURCE)
        if first.src > second.src:
            raise RuntimeError("intermittent order-dependent crash")
        return "ok"
    yield ctx.compute((ctx.rank * 7 % 3) * 1e-6)
    ctx.isend(0, ctx.rank)


class TestSweepSeeds:
    def test_finds_matching_seed_and_keeps_run(self):
        target = (2, 1, 3)

        sweep = sweep_seeds(
            order_sensitive_program,
            4,
            lambda run: run.app_results[0] == target
            or run.app_results[0] is not None,  # any completed run matches
            seeds=range(3),
        )
        assert sweep.first_match is not None
        assert sweep.first_match in sweep.runs
        assert sweep.runs[sweep.first_match].archive is not None

    def test_stop_after_limits_work(self):
        sweep = sweep_seeds(
            order_sensitive_program, 4, lambda run: True, seeds=range(50), stop_after=2
        )
        assert len(sweep.matching) == 2

    def test_crashes_collected_and_matching(self):
        sweep = sweep_seeds(
            crashing_program,
            4,
            lambda run: False,
            seeds=range(40),
            stop_after=1,
            crashes_match=True,
        )
        if sweep.matching:  # a crashing seed exists in range
            seed = sweep.matching[0]
            assert seed in sweep.crashed
            assert isinstance(sweep.crashed[seed], RuntimeError)

    def test_no_match_returns_empty(self):
        sweep = sweep_seeds(
            order_sensitive_program, 4, lambda run: False, seeds=range(4),
            crashes_match=False,
        )
        assert sweep.first_match is None
        assert len(sweep.non_matching) == 4


class TestDistinctOutcomes:
    def test_groups_cover_all_seeds(self):
        groups = distinct_outcomes(order_sensitive_program, 5, seeds=range(8))
        assert sum(len(v) for v in groups.values()) == 8

    def test_nondeterministic_program_has_multiple_groups(self):
        groups = distinct_outcomes(order_sensitive_program, 5, seeds=range(10))
        assert len(groups) > 1
