"""Figures 4-8: the worked encoding example, 55 values down to 19.

Regenerates every intermediate representation of Section 3's example table
and benchmarks the full encode pipeline on it.
"""

from repro.core import build_columnar_tables, encode_table, reference_order, value_count_breakdown
from repro.core.events import outcomes_to_rows
from repro.analysis import render_table
from benchmarks.conftest import emit
from tests.conftest import paper_outcome_stream


def test_fig04_08_worked_example(benchmark):
    outcomes = paper_outcome_stream()
    columns = build_columnar_tables(outcomes)["A"][0]
    table = columns.to_record_table()

    chunk = benchmark(encode_table, columns)

    rows = list(outcomes_to_rows(outcomes))
    fig4 = render_table(
        "Figure 4 — original record (quintuple rows)",
        ["count", "flag", "with_next", "rank", "clock"],
        [
            (
                r.count,
                int(r.flag),
                "--" if r.with_next is None else int(r.with_next),
                "--" if r.rank is None else r.rank,
                "--" if r.clock is None else r.clock,
            )
            for r in rows
        ],
        note=f"{len(rows)} rows x 5 = {5 * len(rows)} stored values",
    )

    ref = reference_order(table.matched)
    fig7 = render_table(
        "Figure 7 — permutation difference vs the reference order",
        ["table", "values"],
        [
            ("observed (rank,clock)", [(e.rank, e.clock) for e in table.matched]),
            ("reference (rank,clock)", [(e.rank, e.clock) for e in ref]),
            ("moved indices", list(chunk.diff.indices)),
            ("delays", list(chunk.diff.delays)),
        ],
        note="3 moved events of 8 -> permutation percentage 37.5%",
    )

    fig8 = render_table(
        "Figure 8 — complete CDC encoding",
        ["table", "content"],
        [
            ("permutation diff", list(zip(chunk.diff.indices, chunk.diff.delays))),
            ("with_next indices", list(chunk.with_next_indices)),
            ("unmatched runs", list(chunk.unmatched_runs)),
            ("epoch line", chunk.epoch.as_sorted_pairs()),
        ],
        note=f"{chunk.value_count()} stored values (paper: 19)",
    )

    vc = value_count_breakdown(outcomes)
    summary = render_table(
        "Section 3 — stored-value accounting",
        ["stage", "values"],
        [
            ("original record (Fig. 4)", vc.raw),
            ("redundancy elimination (Fig. 6)", vc.after_re),
            ("full CDC (Fig. 8)", vc.after_cdc),
        ],
        note=f"reduction {vc.reduction_factor:.2f}x on the worked example",
    )

    emit("fig04_08_worked_example", "\n\n".join([fig4, fig7, fig8, summary]))

    assert (vc.raw, vc.after_re, vc.after_cdc) == (55, 23, 19)
    assert chunk.value_count() == 19
