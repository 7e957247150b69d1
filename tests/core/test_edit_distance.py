"""LIS machinery and edit-distance equivalences (Section 4.1)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.edit_distance import (
    lis_length,
    longest_increasing_subsequence,
    stable_and_moved,
    validate_permutation,
)
from repro.errors import EncodingError
from tests.core.oracles import (
    myers_edit_distance,
    myers_edit_script,
    permutation_edit_distance,
)

permutations = st.integers(0, 40).map(
    lambda n: random.Random(n).sample(range(n), n)
)


def random_permutation(n, seed):
    rng = random.Random(seed)
    p = list(range(n))
    rng.shuffle(p)
    return p


class TestLIS:
    def test_paper_example(self):
        """The Figure 10 observed order keeps a 5-long stable subsequence."""
        b = [0, 3, 2, 1, 4, 7, 5, 6]
        idx = longest_increasing_subsequence(b)
        assert len(idx) == 5
        values = [b[i] for i in idx]
        assert values == sorted(values)

    def test_sorted_input_keeps_everything(self):
        assert len(longest_increasing_subsequence(list(range(20)))) == 20

    def test_reversed_input_keeps_one(self):
        assert len(longest_increasing_subsequence(list(range(20, 0, -1)))) == 1

    def test_empty(self):
        assert longest_increasing_subsequence([]) == []

    @given(st.integers(0, 30), st.integers(0, 10**6))
    def test_subsequence_is_increasing_and_maximal(self, n, seed):
        b = random_permutation(n, seed)
        idx = longest_increasing_subsequence(b)
        assert idx == sorted(idx)
        values = [b[i] for i in idx]
        assert all(a < c for a, c in zip(values, values[1:]))
        assert len(idx) == lis_length(b)

    @given(st.integers(0, 25), st.integers(0, 10**6))
    def test_lis_length_matches_quadratic_oracle(self, n, seed):
        b = random_permutation(n, seed)
        best = [1] * n if n else []
        for i in range(n):
            for j in range(i):
                if b[j] < b[i]:
                    best[i] = max(best[i], best[j] + 1)
        assert lis_length(b) == (max(best) if best else 0)


class TestValidation:
    def test_accepts_permutation(self):
        validate_permutation([2, 0, 1])

    @pytest.mark.parametrize("bad", [[0, 0], [1, 2], [0, -1], [0, 2]])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(EncodingError):
            validate_permutation(bad)


class TestEditDistance:
    def test_paper_example_distance(self):
        """3 moved events -> D = 6 (three <x/>x pairs in Figure 10)."""
        assert permutation_edit_distance([0, 3, 2, 1, 4, 7, 5, 6]) == 6

    def test_identity_distance_zero(self):
        assert permutation_edit_distance(list(range(10))) == 0

    @given(st.integers(0, 18), st.integers(0, 10**6))
    def test_matches_myers_against_identity(self, n, seed):
        """Insert/delete-only distance == Myers on (identity, b)."""
        b = random_permutation(n, seed)
        assert permutation_edit_distance(b) == myers_edit_distance(list(range(n)), b)


class TestStableMoved:
    @given(st.integers(0, 30), st.integers(0, 10**6))
    def test_partition_is_complete_and_disjoint(self, n, seed):
        b = random_permutation(n, seed)
        stable, moved = stable_and_moved(b)
        assert sorted(stable + moved) == list(range(n))
        assert moved == sorted(moved)

    def test_identity_moves_nothing(self):
        stable, moved = stable_and_moved(list(range(5)))
        assert moved == []
        assert stable == list(range(5))


class TestMyersScript:
    def test_script_replays_to_target(self):
        a, b = [0, 1, 2, 3], [2, 0, 3, 1]
        script = myers_edit_script(a, b)
        out = [x for op, x in script if op in ("=", ">")]
        kept_from_a = [x for op, x in script if op == "="]
        assert out == b
        assert kept_from_a == [x for x in a if x in kept_from_a]

    def test_paper_pairs_property(self):
        """Every moved element appears as one delete + one insert."""
        b = [0, 3, 2, 1, 4, 7, 5, 6]
        script = myers_edit_script(list(range(8)), b)
        deletes = sorted(x for op, x in script if op == "<")
        inserts = sorted(x for op, x in script if op == ">")
        assert deletes == inserts == [1, 2, 7]
