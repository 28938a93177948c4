"""Unit + property-based tests for weighted aggregation primitives.

The weighted median is the core of the paper's continuous truth update
(Eq. 16), so it gets the heaviest property-based treatment: the Eq. 16
mass conditions and the exact-minimizer property of Eq. 3 with absolute
loss.  These scalar versions (``tests/kernel_oracles.py``) are the oracles
``tests/test_kernels.py`` checks the solver's segment kernels against;
``column_std`` is the dense-table std of ``repro.core.kernels``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import column_std
from tests.conftest import examples
from tests.kernel_oracles import weighted_mean, weighted_median, weighted_mode

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
positive_weights = st.floats(min_value=0.0, max_value=1e3,
                             allow_nan=False, allow_infinity=False)


class TestWeightedMedianScalar:
    def test_uniform_weights_is_median(self):
        assert weighted_median([1, 2, 3, 4, 5], [1] * 5) == 3

    def test_heavy_weight_dominates(self):
        assert weighted_median([1, 2, 100], [1, 1, 10]) == 100

    def test_paper_definition_example(self):
        # weights below the median < W/2, weights above <= W/2
        values = [10.0, 20.0, 30.0, 40.0]
        weights = [1.0, 1.0, 1.0, 1.0]
        assert weighted_median(values, weights) == 20.0

    def test_zero_total_weight_falls_back(self):
        assert weighted_median([5.0, 7.0, 9.0], [0, 0, 0]) == 7.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            weighted_median([1.0], [-1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_median([], [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_median([1.0, 2.0], [1.0])


@given(
    st.lists(st.tuples(finite_floats, positive_weights),
             min_size=1, max_size=30),
)
def test_median_is_a_claimed_value(pairs):
    values = [p[0] for p in pairs]
    weights = [p[1] for p in pairs]
    assert weighted_median(values, weights) in values


@given(
    st.lists(st.tuples(finite_floats,
                       st.floats(min_value=0.01, max_value=100)),
             min_size=1, max_size=25),
)
def test_median_satisfies_eq16(pairs):
    """Strictly-below mass < W/2 and strictly-above mass <= W/2."""
    values = np.array([p[0] for p in pairs])
    weights = np.array([p[1] for p in pairs])
    median = weighted_median(values, weights)
    total = weights.sum()
    below = weights[values < median].sum()
    above = weights[values > median].sum()
    assert below < total / 2 + 1e-9
    assert above <= total / 2 + 1e-9


@given(
    st.lists(st.tuples(st.floats(min_value=-100, max_value=100,
                                 allow_nan=False),
                       st.floats(min_value=0.01, max_value=10)),
             min_size=1, max_size=15),
)
@settings(max_examples=examples(50))
def test_median_minimizes_weighted_absolute_loss(pairs):
    """Eq. 3 with absolute loss: no claimed value beats the median."""
    values = np.array([p[0] for p in pairs])
    weights = np.array([p[1] for p in pairs])
    median = weighted_median(values, weights)

    def loss(candidate):
        return float((weights * np.abs(values - candidate)).sum())

    best = loss(median)
    for candidate in values:
        assert best <= loss(candidate) + 1e-6


class TestWeightedMeanScalar:
    def test_basic(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == 2.0
        assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == 1.5

    def test_zero_weights_fall_back(self):
        assert weighted_mean([2.0, 4.0], [0.0, 0.0]) == 3.0


class TestWeightedModeScalar:
    def test_majority(self):
        assert weighted_mode([0, 0, 1], [1, 1, 1]) == 0

    def test_weighted_minority_wins(self):
        assert weighted_mode([0, 0, 1], [1, 1, 5]) == 1

    def test_tie_breaks_to_smallest_code(self):
        assert weighted_mode([1, 0], [1.0, 1.0]) == 0

    def test_negative_code_rejected(self):
        with pytest.raises(ValueError):
            weighted_mode([-1], [1.0])


class TestColumnStd:
    def test_basic(self):
        values = np.array([[1.0, 10.0], [3.0, 10.0]])
        std = column_std(values)
        assert std[0] == pytest.approx(1.0)   # std of (1, 3)
        assert std[1] == 1.0                  # unanimous -> fallback

    def test_single_observation_falls_back(self):
        values = np.array([[5.0], [np.nan]])
        assert column_std(values)[0] == 1.0

    def test_positive(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 2, (5, 50))
        assert (column_std(values) > 0).all()
