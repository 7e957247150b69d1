"""The paper's worked example, Figures 4 through 8, end to end.

Section 3 walks one 11-row recording table through every CDC stage and
claims 55 stored values shrink to 19. This module pins each intermediate
artifact to the paper's numbers.
"""

import pytest

from repro.core import reconstruct_table, reference_order, value_count_breakdown
from repro.core.events import ReceiveEvent, outcomes_to_rows
from tests.core.test_pipeline import build_tables, encode_chunk


@pytest.fixture
def table(paper_outcomes):
    return build_tables(paper_outcomes)["A"][0]


class TestFigure4:
    def test_eleven_rows_fifty_five_values(self, paper_outcomes):
        rows = list(outcomes_to_rows(paper_outcomes))
        assert len(rows) == 11
        assert sum(len(r.values()) for r in rows) == 55


class TestFigure6:
    def test_matched_table(self, table):
        assert [(e.rank, e.clock) for e in table.matched] == [
            (0, 2), (0, 13), (2, 8), (1, 8), (0, 15), (1, 19), (0, 17), (0, 18),
        ]

    def test_with_next_table(self, table):
        assert table.with_next_indices == (1,)

    def test_unmatched_table(self, table):
        assert table.unmatched_runs == ((1, 2), (6, 3), (7, 1))

    def test_twenty_three_values(self, table):
        assert table.encoded_value_count() == 23


class TestFigure7:
    def test_reference_order(self, table):
        ref = reference_order(table.matched)
        assert [(e.rank, e.clock) for e in ref] == [
            (0, 2), (1, 8), (2, 8), (0, 13), (0, 15), (0, 17), (0, 18), (1, 19),
        ]

    def test_observed_order_as_reference_indices(self, table):
        from repro.core.permutation import observed_as_reference_indices

        ref = reference_order(table.matched)
        indices = observed_as_reference_indices(
            [e.key for e in table.matched], [e.key for e in ref]
        )
        assert indices == [0, 3, 2, 1, 4, 7, 5, 6]  # Figure 7/10's B

    def test_three_permutation_rows(self, table):
        chunk = encode_chunk(table)
        assert chunk.diff.num_moved == 3
        # the paper's edit-script delays differ from our displacement
        # semantics by documented constants; the move-set size and the
        # 37.5% permutation percentage are identical
        assert chunk.diff.permutation_percentage() == pytest.approx(0.375)


class TestFigure8:
    def test_epoch_line(self, table):
        chunk = encode_chunk(table)
        assert dict(chunk.epoch.max_clock_by_rank) == {0: 18, 1: 19, 2: 8}

    def test_nineteen_values(self, table):
        assert encode_chunk(table).value_count() == 19

    def test_breakdown_55_23_19(self, paper_outcomes):
        vc = value_count_breakdown(paper_outcomes)
        assert (vc.raw, vc.after_re, vc.after_cdc) == (55, 23, 19)


class TestSection35:
    def test_runoff_message_excluded(self, table):
        """(rank 2, clock 17) 'runs off the epoch line' of this chunk."""
        chunk = encode_chunk(table)
        assert not chunk.epoch.contains(ReceiveEvent(2, 17))


class TestDecode:
    def test_full_decode_restores_figure4(self, table, paper_outcomes):
        chunk = encode_chunk(table)
        rebuilt = reconstruct_table(chunk, list(table.matched))
        assert list(outcomes_to_rows(rebuilt.to_outcomes())) == list(
            outcomes_to_rows(paper_outcomes)
        )
