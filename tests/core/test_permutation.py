"""Permutation-difference codec (Section 3.3, Figure 7)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ReceiveEvent
from repro.core.permutation import (
    PermutationDiff,
    apply_permutation,
    decode_permutation,
    encode_permutation,
    observed_as_reference_indices,
)
from repro.errors import DecodingError


def random_permutation(n, seed):
    rng = random.Random(seed)
    p = list(range(n))
    rng.shuffle(p)
    return p


def nearly_sorted(n, swaps, seed):
    rng = random.Random(seed)
    p = list(range(n))
    for _ in range(swaps):
        i = rng.randrange(max(1, n - 1))
        p[i], p[i + 1] = p[i + 1], p[i]
    return p


class TestEncode:
    def test_identity_encodes_empty(self):
        diff = encode_permutation(list(range(12)))
        assert diff.is_identity()
        assert diff.num_moved == 0

    def test_paper_example_row_count(self):
        """Figure 7 records exactly three moved events."""
        diff = encode_permutation([0, 3, 2, 1, 4, 7, 5, 6])
        assert diff.num_moved == 3
        assert diff.permutation_percentage() == pytest.approx(0.375)

    def test_indices_ascend_for_lp_friendliness(self):
        diff = encode_permutation([4, 3, 2, 1, 0])
        assert list(diff.indices) == sorted(diff.indices)

    def test_single_element(self):
        assert encode_permutation([0]).is_identity()

    def test_empty(self):
        assert encode_permutation([]).size == 0


class TestRoundTrip:
    @given(st.integers(0, 60), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_random_permutations(self, n, seed):
        b = random_permutation(n, seed)
        assert decode_permutation(encode_permutation(b)) == b

    @given(st.integers(2, 80), st.integers(0, 15), st.integers(0, 10**6))
    def test_nearly_sorted_permutations(self, n, swaps, seed):
        """The CDC-typical case: small local disorder."""
        b = nearly_sorted(n, swaps, seed)
        diff = encode_permutation(b)
        assert decode_permutation(diff) == b
        assert diff.num_moved <= swaps

    def test_reverse(self):
        b = list(range(10))[::-1]
        assert decode_permutation(encode_permutation(b)) == b


class TestDecodeValidation:
    def test_duplicate_target_position_rejected(self):
        diff = PermutationDiff(3, (0, 1), (1, 0))  # both land at position 1
        with pytest.raises(DecodingError):
            decode_permutation(diff)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DecodingError):
            decode_permutation(PermutationDiff(3, (5,), (0,)))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(DecodingError):
            decode_permutation(PermutationDiff(3, (0,), (9,)))

    def test_duplicate_moved_index_rejected(self):
        with pytest.raises(DecodingError):
            decode_permutation(PermutationDiff(4, (1, 1), (1, 2)))

    def test_more_moves_than_events_rejected(self):
        with pytest.raises(DecodingError):
            decode_permutation(PermutationDiff(1, (0, 1), (0, 0)))

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            PermutationDiff(3, (0,), (1, 2))


class TestApplyPermutation:
    def test_permutes_concrete_events(self):
        events = [ReceiveEvent(0, 2), ReceiveEvent(1, 8), ReceiveEvent(2, 8)]
        diff = encode_permutation([2, 0, 1])
        observed = apply_permutation(diff, events)
        assert observed == [events[2], events[0], events[1]]

    def test_size_mismatch_rejected(self):
        diff = encode_permutation([1, 0])
        with pytest.raises(DecodingError):
            apply_permutation(diff, [ReceiveEvent(0, 1)])


class TestObservedAsReferenceIndices:
    def test_maps_keys(self):
        ref = ["a", "b", "c"]
        assert observed_as_reference_indices(["c", "a", "b"], ref) == [2, 0, 1]

    def test_duplicate_reference_keys_rejected(self):
        with pytest.raises(DecodingError):
            observed_as_reference_indices(["a"], ["a", "a"])


class TestCompressionShape:
    @given(st.integers(5, 60), st.integers(0, 4), st.integers(0, 10**6))
    def test_small_disorder_gives_small_tables(self, n, swaps, seed):
        """Row count scales with disorder, not sequence length — the claim
        that makes CDC beat gzip on near-ordered traffic."""
        b = nearly_sorted(n, swaps, seed)
        assert encode_permutation(b).num_moved <= 2 * swaps
