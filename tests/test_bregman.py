"""Tests for the Bregman-divergence loss family (Section 2.5's [29])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import crh
from repro.core import ExponentialWeights, loss_by_name
from repro.core.bregman import (
    GENERATORS,
    BregmanLoss,
    bregman_divergence,
)
from repro.data import DatasetBuilder, DatasetSchema, TruthTable, continuous
from tests.conftest import examples

positive_floats = st.floats(min_value=0.1, max_value=1e4,
                            allow_nan=False)


class TestDivergences:
    def test_zero_iff_equal(self):
        for name in GENERATORS:
            assert bregman_divergence(name, 3.0, 3.0) == pytest.approx(0.0)
            assert bregman_divergence(name, 3.0, 4.0) > 0

    def test_squared_euclidean_value(self):
        assert bregman_divergence("squared_euclidean", 5.0, 2.0) == \
            pytest.approx(4.5)

    def test_itakura_saito_asymmetric(self):
        forward = bregman_divergence("itakura_saito", 1.0, 4.0)
        backward = bregman_divergence("itakura_saito", 4.0, 1.0)
        assert forward != pytest.approx(backward)

    def test_generalized_i_value(self):
        # x log(x/y) - x + y at x=2, y=1: 2 log 2 - 1
        assert bregman_divergence("generalized_i", 2.0, 1.0) == \
            pytest.approx(2 * np.log(2) - 1)

    def test_unknown_generator(self):
        with pytest.raises(KeyError, match="unknown Bregman"):
            bregman_divergence("hellinger", 1.0, 1.0)


@given(st.lists(st.tuples(positive_floats,
                          st.floats(min_value=0.01, max_value=10)),
                min_size=2, max_size=15))
@settings(max_examples=examples(60))
def test_weighted_mean_is_bregman_centroid(pairs):
    """Banerjee et al.'s theorem: for every generator, the weighted mean
    minimizes the weighted divergence over the second argument."""
    x = np.array([p[0] for p in pairs])
    w = np.array([p[1] for p in pairs])
    mean = float((x * w).sum() / w.sum())
    for name, generator in GENERATORS.items():
        def objective(y: float) -> float:
            return float((w * generator.divergence(x, np.full_like(x, y))
                          ).sum())
        best = objective(mean)
        for candidate in [mean * 0.9, mean * 1.1, float(x.min()),
                          float(x.max())]:
            if candidate <= 0:
                continue
            assert best <= objective(candidate) + 1e-6 * (1 + abs(best)), \
                name


class TestBregmanLossInSolver:
    def _positive_dataset(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        schema = DatasetSchema.of(continuous("power"))
        builder = DatasetBuilder(schema)
        true_power = rng.lognormal(2.0, 0.8, n)
        sigmas = [0.05, 0.1, 0.2, 0.6, 0.9]
        for i in range(n):
            for k, sigma in enumerate(sigmas):
                builder.add(f"o{i}", f"s{k}", "power",
                            float(true_power[i]
                                  * np.exp(rng.normal(0, sigma))))
        dataset = builder.build()
        truth = TruthTable.from_labels(schema, dataset.object_ids,
                                       {"power": true_power.tolist()})
        return dataset, truth

    @pytest.mark.parametrize("loss_name", [
        "bregman_squared_euclidean",
        "bregman_itakura_saito",
        "bregman_generalized_i",
    ])
    def test_registered_and_usable(self, loss_name):
        dataset, truth = self._positive_dataset()
        result = crh(dataset, continuous_loss=loss_name)
        assert result.converged
        from repro.metrics import mnad
        assert mnad(result.truths, truth) < 0.25
        # Good sources get the higher weights.
        assert result.weights[0] >= result.weights[-1]

    def test_truth_update_is_weighted_mean(self):
        dataset, _ = self._positive_dataset(seed=1)
        prop = dataset.properties[0]
        weights = np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        expected = (prop.values * weights[:, None]).sum(axis=0) \
            / weights.sum()
        for loss_name in ("bregman_itakura_saito",
                          "bregman_generalized_i"):
            loss = loss_by_name(loss_name)
            state = loss.update_truth(prop, weights)
            np.testing.assert_allclose(state.column, expected)

    def test_domain_violation_rejected(self):
        schema = DatasetSchema.of(continuous("x"))
        builder = DatasetBuilder(schema)
        builder.add("o1", "a", "x", -1.0)
        builder.add("o1", "b", "x", 2.0)
        dataset = builder.build()
        with pytest.raises(ValueError, match="outside the itakura_saito"):
            crh(dataset, continuous_loss="bregman_itakura_saito")

    def test_objective_monotone_with_sum_normalizer(self):
        """The Section 2.5 convergence argument holds for the Bregman
        family: with the exact Eq. 5 normalizer the objective is
        non-increasing from the second iteration on."""
        dataset, _ = self._positive_dataset(seed=2)
        result = crh(
            dataset,
            continuous_loss="bregman_generalized_i",
            weight_scheme=ExponentialWeights("sum"),
            max_iterations=30, tol=0.0,
        )
        history = np.array(result.objective_history)
        assert (np.diff(history[1:]) <= 1e-6).all()

    def test_deviations_nan_on_missing(self):
        dataset, _ = self._positive_dataset(seed=3)
        prop = dataset.properties[0]
        prop.values[0, :5] = np.nan
        loss = loss_by_name("bregman_itakura_saito")
        state = loss.update_truth(prop, np.ones(5))
        dev = loss.deviations(state, prop)
        assert np.isnan(dev[0, :5]).all()
        assert not np.isnan(dev[1]).any()
