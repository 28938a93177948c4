"""Tests for the Huber loss."""

import numpy as np
import pytest

from repro import crh
from repro.core import loss_by_name
from repro.core.robust_loss import HuberLoss, huber_value
from tests.conftest import make_synthetic


class TestHuberValue:
    def test_quadratic_region(self):
        assert huber_value(0.5, delta=1.0) == pytest.approx(0.125)
        assert huber_value(-0.5, delta=1.0) == pytest.approx(0.125)

    def test_linear_region(self):
        assert huber_value(3.0, delta=1.0) == pytest.approx(2.5)
        assert huber_value(-3.0, delta=1.0) == pytest.approx(2.5)

    def test_continuous_at_delta(self):
        below = huber_value(1.0 - 1e-9)
        above = huber_value(1.0 + 1e-9)
        assert below == pytest.approx(above, abs=1e-6)


class TestHuberLoss:
    def test_registered(self):
        assert isinstance(loss_by_name("huber"), HuberLoss)

    def test_deviations_match_scalar(self, tiny_dataset):
        loss = HuberLoss()
        prop = tiny_dataset.property_observations("temp")
        state = loss.update_truth(prop, np.ones(3))
        dev = loss.deviations(state, prop)
        values = prop.values
        std = state.aux["std"]
        for k in range(3):
            for j in range(prop.n_objects):
                residual = (values[k, j] - state.column[j]) / std[j]
                assert dev[k, j] == pytest.approx(huber_value(residual))

    def test_truth_minimizes_weighted_huber(self, tiny_dataset):
        """IRLS lands on the convex objective's minimum: no nudge of the
        truth lowers the per-entry weighted Huber cost."""
        loss = HuberLoss()
        prop = tiny_dataset.property_observations("temp")
        weights = np.array([2.0, 1.0, 0.5])
        state = loss.update_truth(prop, weights)
        std = state.aux["std"]
        values = prop.values
        for j in range(prop.n_objects):
            def cost(candidate):
                return sum(
                    w * huber_value((values[k, j] - candidate) / std[j])
                    for k, w in enumerate(weights)
                )
            best = cost(state.column[j])
            for eps in (-0.5, -0.05, 0.05, 0.5):
                assert best <= cost(state.column[j] + eps) + 1e-8

    def test_between_mean_and_median_under_outliers(self):
        """Huber truths sit between the mean's outlier-chasing and the
        median's outlier-ignoring, by construction."""
        from repro.data import DatasetBuilder, DatasetSchema, continuous
        schema = DatasetSchema.of(continuous("x"))
        builder = DatasetBuilder(schema)
        claims = [10.0, 10.5, 11.0, 10.2, 60.0]   # one gross outlier
        for k, value in enumerate(claims):
            builder.add("o1", f"s{k}", "x", value)
        dataset = builder.build()
        uniform = np.ones(5)
        mean_truth = loss_by_name("squared").update_truth(
            dataset.properties[0], uniform).column[0]
        median_truth = loss_by_name("absolute").update_truth(
            dataset.properties[0], uniform).column[0]
        huber_truth = loss_by_name("huber").update_truth(
            dataset.properties[0], uniform).column[0]
        assert median_truth <= huber_truth < mean_truth

    def test_usable_in_crh(self):
        dataset, truth = make_synthetic(n_objects=80, seed=6)
        result = crh(dataset, continuous_loss="huber")
        from repro.metrics import mnad
        assert result.converged
        assert mnad(result.truths, truth) < 0.2

    def test_missing_values_handled(self):
        loss = HuberLoss()
        dataset, _ = make_synthetic(n_objects=40, seed=7)
        prop = dataset.property_observations("x")
        prop.values[0, :10] = np.nan
        state = loss.update_truth(prop, np.ones(5))
        assert not np.isnan(state.column).any()
        dev = loss.deviations(state, prop)
        assert np.isnan(dev[0, :10]).all()
