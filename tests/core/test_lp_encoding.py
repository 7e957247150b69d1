"""Linear predictive encoding (Section 3.4, Eq. 1-3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lp_encoding import PAPER_COEFFS, lp_encode
from tests.core.oracles import lp_decode, lp_decode_array, lp_encode_array


def prediction_quality(values, coeffs=PAPER_COEFFS) -> float:
    """Fraction of exactly-predicted values (``e_n == 0``) after the warmup."""
    errors = lp_encode(values, coeffs)
    if len(errors) <= len(coeffs):
        return 0.0
    body = errors[len(coeffs):]
    return sum(1 for e in body if e == 0) / len(body)


class TestPaperExample:
    def test_worked_text_example(self):
        """Section 3.4: {1,2,4,6,8,12,17} -> {1,0,1,0,0,2,1}."""
        assert lp_encode([1, 2, 4, 6, 8, 12, 17]) == [1, 0, 1, 0, 0, 2, 1]

    def test_worked_example_decodes_back(self):
        assert lp_decode([1, 0, 1, 0, 0, 2, 1]) == [1, 2, 4, 6, 8, 12, 17]

    def test_first_error_equals_first_value(self):
        """e1 == x1 makes the stream self-starting (paper's observation)."""
        assert lp_encode([42, 50])[0] == 42


class TestRoundTrip:
    @given(st.lists(st.integers(-(10**9), 10**9), max_size=100))
    def test_paper_coeffs_lossless(self, xs):
        assert lp_decode(lp_encode(xs)) == xs

    @given(
        st.lists(st.integers(-1000, 1000), max_size=40),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    )
    def test_arbitrary_coeffs_lossless(self, xs, coeffs):
        assert lp_decode(lp_encode(xs, coeffs), coeffs) == xs

    def test_empty(self):
        assert lp_encode([]) == []
        assert lp_decode([]) == []


class TestVectorized:
    @given(st.lists(st.integers(-(10**6), 10**6), max_size=200))
    def test_array_encoder_matches_scalar(self, xs):
        np.testing.assert_array_equal(
            lp_encode_array(np.array(xs, dtype=np.int64)), lp_encode(xs)
        )

    @given(st.lists(st.integers(-(10**6), 10**6), max_size=200))
    def test_array_roundtrip(self, xs):
        arr = np.array(xs, dtype=np.int64)
        np.testing.assert_array_equal(lp_decode_array(lp_encode_array(arr)), arr)


class TestCompressionBehaviour:
    def test_arithmetic_sequence_collapses_to_zeros(self):
        """Regular index columns are exactly why LPE helps (Section 6.3)."""
        xs = list(range(0, 1000, 7))
        errors = lp_encode(xs)
        assert all(e == 0 for e in errors[2:])

    def test_prediction_quality_high_for_regular_patterns(self):
        assert prediction_quality(list(range(0, 200, 3))) == 1.0

    def test_prediction_quality_low_for_noise(self):
        import random

        rng = random.Random(0)
        xs = [rng.randrange(10**6) for _ in range(100)]
        assert prediction_quality(xs) < 0.2

    def test_quality_handles_short_input(self):
        assert prediction_quality([5]) == 0.0

    @pytest.mark.parametrize("n", [10, 100])
    def test_monotone_index_errors_are_small(self, n):
        """Near-linear growth => near-zero errors => tiny varints."""
        xs = [3 * i + (i % 2) for i in range(n)]
        errors = lp_encode(xs)
        assert max(abs(e) for e in errors[2:]) <= 2


def test_paper_coeffs_are_the_line_extension():
    assert PAPER_COEFFS == (2, -1)
