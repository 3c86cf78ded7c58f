"""Tests for CCR, P2A, and CoV — the paper's skewness metrics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats import (
    ccr,
    ccr_curve,
    cov,
    normalized_cov,
    normalized_cov_rows,
    p2a,
    top_share,
)
from repro.util import ConfigError

positive_traffic = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestCcr:
    def test_uniform_traffic(self):
        # Top 20% of 10 equal entities carries exactly 20%.
        assert ccr([5.0] * 10, 0.2) == pytest.approx(0.2)

    def test_single_hot_entity(self):
        values = [0.0] * 99 + [100.0]
        assert ccr(values, 0.01) == pytest.approx(1.0)

    def test_at_least_one_entity_counted(self):
        # 1% of 10 entities rounds up to the single hottest entity.
        values = [1.0] * 9 + [91.0]
        assert ccr(values, 0.01) == pytest.approx(0.91)

    def test_full_fraction_is_one(self):
        assert ccr([1.0, 2.0, 3.0], 1.0) == pytest.approx(1.0)

    def test_zero_traffic(self):
        assert ccr([0.0, 0.0], 0.5) == 0.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            ccr([1.0], 0.0)
        with pytest.raises(ConfigError):
            ccr([1.0], 1.5)

    def test_rejects_negative_traffic(self):
        with pytest.raises(ConfigError):
            ccr([1.0, -1.0], 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            ccr([], 0.5)

    @given(positive_traffic)
    def test_monotone_in_fraction(self, values):
        assert ccr(values, 0.1) <= ccr(values, 0.5) + 1e-12
        assert ccr(values, 0.5) <= ccr(values, 1.0) + 1e-12

    @given(positive_traffic)
    def test_bounded(self, values):
        value = ccr(values, 0.3)
        assert 0.0 <= value <= 1.0 + 1e-12


class TestCcrCurve:
    def test_matches_pointwise(self):
        values = [1.0, 5.0, 2.0, 8.0, 4.0]
        curve = ccr_curve(values, [0.2, 0.6, 1.0])
        for fraction, expected in curve.items():
            assert expected == pytest.approx(ccr(values, fraction))

    def test_zero_traffic(self):
        assert ccr_curve([0.0, 0.0], [0.5])[0.5] == 0.0


class TestTopShare:
    def test_basic(self):
        assert top_share([1.0, 3.0, 6.0]) == pytest.approx(0.6)

    def test_zero(self):
        assert top_share([0.0, 0.0]) == 0.0


class TestP2a:
    def test_flat_series(self):
        assert p2a([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_spike(self):
        # One spike of 100 over 100 zero seconds: mean 1, peak 100.
        series = [0.0] * 99 + [100.0]
        assert p2a(series) == pytest.approx(100.0)

    def test_all_zero(self):
        assert p2a([0.0, 0.0]) == 0.0

    @given(positive_traffic)
    def test_at_least_one_when_nonzero(self, values):
        if sum(values) > 0:
            assert p2a(values) >= 1.0 - 1e-12


class TestCov:
    def test_flat_is_zero(self):
        assert cov([2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_known_value(self):
        values = np.array([1.0, 3.0])
        expected = values.std() / values.mean()
        assert cov(values) == pytest.approx(expected)

    def test_all_zero(self):
        assert cov([0.0, 0.0]) == 0.0


class TestNormalizedCov:
    def test_perfect_skew_is_one(self):
        # All traffic on one of n entities is the maximal-skew case.
        for n in (2, 4, 10):
            values = [0.0] * (n - 1) + [10.0]
            assert normalized_cov(values) == pytest.approx(1.0)

    def test_uniform_is_zero(self):
        assert normalized_cov([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_single_value_is_zero(self):
        assert normalized_cov([42.0]) == 0.0

    def test_matches_manual_normalization(self):
        values = [1.0, 2.0, 3.0, 10.0]
        assert normalized_cov(values) == pytest.approx(
            cov(values) / math.sqrt(3)
        )

    @given(positive_traffic)
    def test_bounded_in_unit_interval(self, values):
        value = normalized_cov(values)
        assert -1e-9 <= value <= 1.0 + 1e-9


def _per_row(matrix):
    return np.array([normalized_cov(row) for row in matrix])


class TestNormalizedCovRows:
    @pytest.mark.parametrize(
        "width", [1, 2, 3, 4, 7, 8, 9, 16, 17, 64, 127, 128, 129, 300]
    )
    def test_bit_identical_to_per_row_calls(self, width):
        rng = np.random.default_rng(width)
        matrix = rng.lognormal(0.0, 3.0, size=(25, width))
        matrix[rng.random(matrix.shape) < 0.4] = 0.0
        matrix[0] = 0.0  # an all-zero row
        matrix[1] = 7.0  # an even row
        got = normalized_cov_rows(matrix)
        assert got.tobytes() == _per_row(matrix).tobytes()

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=1e12),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=20,
            )
        )
    )
    def test_bit_identical_property(self, rows):
        matrix = np.array(rows)
        assert (
            normalized_cov_rows(matrix).tobytes()
            == _per_row(matrix).tobytes()
        )

    def test_non_contiguous_input(self):
        matrix = np.arange(48.0).reshape(6, 8)[:, ::2]
        assert (
            normalized_cov_rows(matrix).tobytes()
            == _per_row(matrix).tobytes()
        )

    def test_single_column_and_zero_rows(self):
        assert normalized_cov_rows([[3.0], [0.0]]).tolist() == [0.0, 0.0]
        assert normalized_cov_rows([[0.0, 0.0, 0.0]]).tolist() == [0.0]
        assert normalized_cov_rows(np.zeros((0, 4))).shape == (0,)

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigError, match="non-negative"):
            normalized_cov_rows([[1.0, -1.0]])

    @pytest.mark.parametrize(
        "bad", [[1.0, 2.0], [[[1.0]]], 5.0, [[]]]
    )
    def test_rejects_non_2d_or_empty_rows(self, bad):
        with pytest.raises(ConfigError):
            normalized_cov_rows(bad)
