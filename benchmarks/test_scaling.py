"""Rank-count scaling sweep: the stability behind Figures 13/14/16.

The paper runs 48..3,072 processes and reports per-event metrics that hold
across the sweep. We sweep 8..64 simulated ranks and check the quantities
CDC's scalability story rests on are scale-stable:

* bytes/event for CDC stays flat (the record grows with events, not ranks);
* the CDC:gzip ratio stays large at every scale;
* mean permutation percentage stays in a narrow band.
"""

import pytest

from repro.analysis import permutation_histogram, render_table
from repro.core import Method, aggregate_reports, compare_methods
from repro.replay import RecordSession
from repro.workloads import mcb
from benchmarks.conftest import emit

RANKS = (8, 16, 32, 64)


def measure(nprocs):
    cfg = mcb.MCBConfig(nprocs=nprocs, particles_per_rank=60, seed=7)
    run = RecordSession(
        mcb.build_program(cfg), nprocs=nprocs, network_seed=1, keep_outcomes=True
    ).run()
    agg = aggregate_reports(
        [compare_methods(run.outcomes[r]) for r in range(nprocs)]
    )
    hist = permutation_histogram(run.outcomes)
    return agg, hist


@pytest.fixture(scope="module")
def sweep():
    return {n: measure(n) for n in RANKS}


def test_scaling_stability(benchmark, sweep):
    benchmark.pedantic(measure, args=(RANKS[0],), rounds=1, iterations=1)

    rows = []
    for n, (agg, hist) in sweep.items():
        rows.append(
            (
                n,
                agg.num_receive_events,
                f"{agg.bytes_per_event(Method.CDC):.3f}",
                f"{agg.rate_vs_gzip():.2f}x",
                f"{100 * hist.mean:.1f}%",
            )
        )
    emit(
        "scaling_sweep",
        render_table(
            "Scaling sweep — per-event metrics vs rank count (MCB weak scaling)",
            ["ranks", "events", "CDC bytes/event", "CDC vs gzip", "mean perm %"],
            rows,
            note="the paper's per-event metrics are scale-stable from 48 to 3,072 ranks",
        ),
    )

    cdc_bpe = [agg.bytes_per_event(Method.CDC) for agg, _ in sweep.values()]
    ratios = [agg.rate_vs_gzip() for agg, _ in sweep.values()]
    perms = [hist.mean for _, hist in sweep.values()]
    # flat within 2x across an 8x rank sweep
    assert max(cdc_bpe) < 2 * min(cdc_bpe)
    assert all(r > 2.5 for r in ratios)
    assert max(perms) - min(perms) < 0.25

