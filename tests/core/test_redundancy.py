"""Redundancy elimination transform (Section 3.2)."""

import pytest

from repro.core.events import QuintupleRow, outcomes_to_rows
from repro.errors import DecodingError
from tests.core.oracles import eliminate_redundancy, restore_redundancy


class TestForward:
    def test_figure4_to_figure6(self, paper_outcomes):
        rows = list(outcomes_to_rows(paper_outcomes))
        table = eliminate_redundancy(rows, "A")
        assert len(table.matched) == 8
        assert table.with_next_indices == (1,)
        assert table.unmatched_runs == ((1, 2), (6, 3), (7, 1))

    def test_adjacent_unmatched_rows_merge(self):
        rows = [
            QuintupleRow(2, False, None, None, None),
            QuintupleRow(3, False, None, None, None),
        ]
        table = eliminate_redundancy(rows, "x")
        assert table.unmatched_runs == ((0, 5),)

    def test_matched_row_with_bad_count_rejected(self):
        with pytest.raises(DecodingError):
            eliminate_redundancy([QuintupleRow(2, True, False, 0, 1)], "x")

    def test_matched_row_missing_identifier_rejected(self):
        with pytest.raises(DecodingError):
            eliminate_redundancy([QuintupleRow(1, True, False, None, 1)], "x")


class TestInverse:
    def test_roundtrip_on_paper_example(self, paper_outcomes):
        rows = list(outcomes_to_rows(paper_outcomes))
        assert restore_redundancy(eliminate_redundancy(rows, "A")) == rows

    def test_empty(self):
        assert restore_redundancy(eliminate_redundancy([], "x")) == []


class TestSizeClaims:
    def test_no_testsome_means_empty_with_next(self):
        """Section 3.2: single-match workloads pay nothing for with_next."""
        rows = [QuintupleRow(1, True, False, 0, c) for c in range(5)]
        table = eliminate_redundancy(rows, "x")
        assert table.with_next_indices == ()

    def test_no_polling_means_empty_unmatched(self):
        """Section 3.2: wait-only workloads pay nothing for unmatched tests."""
        rows = [QuintupleRow(1, True, False, 0, c) for c in range(5)]
        table = eliminate_redundancy(rows, "x")
        assert table.unmatched_runs == ()

    def test_value_reduction_55_to_23(self, paper_outcomes):
        rows = list(outcomes_to_rows(paper_outcomes))
        table = eliminate_redundancy(rows, "A")
        assert 5 * len(rows) == 55
        assert table.encoded_value_count() == 23
