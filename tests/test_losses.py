"""Unit tests for the loss functions of Section 2.4."""

import re

import numpy as np
import pytest

from repro import crh
from repro.core.finegrained import fine_grained_crh
from repro.core.losses import (
    Loss,
    NormalizedAbsoluteLoss,
    NormalizedSquaredLoss,
    ProbabilityVectorLoss,
    ZeroOneLoss,
    available_losses,
    loss_by_name,
    TruthState,
    register_loss,
)
from repro.data.schema import PropertyKind
from repro.streaming import ICRHConfig, TruthService, icrh


@pytest.fixture()
def categorical_prop(tiny_dataset):
    return tiny_dataset.property_observations("condition")


@pytest.fixture()
def continuous_prop(tiny_dataset):
    return tiny_dataset.property_observations("temp")


class TestRegistry:
    def test_all_four_registered(self):
        names = available_losses()
        assert {"zero_one", "probability", "squared", "absolute"} <= \
            set(names)

    def test_filter_by_kind(self):
        assert set(available_losses(PropertyKind.CATEGORICAL)) >= \
            {"zero_one", "probability"}
        assert set(available_losses(PropertyKind.CONTINUOUS)) >= \
            {"squared", "absolute"}

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown loss"):
            loss_by_name("nope")

    def test_register_custom(self):
        class Custom(NormalizedAbsoluteLoss):
            name = "custom_abs_test"

        register_loss(Custom)
        assert isinstance(loss_by_name("custom_abs_test"), Custom)
        with pytest.raises(ValueError, match="already registered"):
            register_loss(Custom)


class _DenseOnlyAbsolute(Loss):
    """A custom loss whose deviations read the ``(K, N)`` matrix."""

    name = "dense_only_absolute_test"
    kind = PropertyKind.CONTINUOUS

    def initial_state(self, prop, init_column):
        return TruthState(column=np.asarray(init_column, dtype=float))

    def update_truth(self, prop, weights):
        return NormalizedAbsoluteLoss().update_truth(prop, weights)

    def deviations(self, state, prop):
        return np.abs(prop.values - state.column[None, :])


class TestDenseOnlyCustomLoss:
    def test_runs_on_every_in_ram_backend(self, tiny_dataset, monkeypatch):
        # "auto" solves a dense dataset on sparse claims, so the default
        # claim_deviations materializes the matrix the loss reads.
        from repro.core import losses
        monkeypatch.setitem(losses._LOSSES, _DenseOnlyAbsolute.name,
                            _DenseOnlyAbsolute)
        dense = crh(tiny_dataset, backend="dense",
                    continuous_loss=_DenseOnlyAbsolute.name)
        for backend in ("auto", "sparse"):
            result = crh(tiny_dataset, backend=backend,
                         continuous_loss=_DenseOnlyAbsolute.name)
            assert result.backend == "sparse"
            np.testing.assert_array_equal(result.weights, dense.weights)
            assert result.objective_history == dense.objective_history


class TestZeroOneLoss:
    def test_deviations_are_indicators(self, categorical_prop):
        loss = ZeroOneLoss()
        weights = np.ones(categorical_prop.n_sources)
        state = loss.update_truth(categorical_prop, weights)
        dev = loss.deviations(state, categorical_prop)
        observed = ~np.isnan(dev)
        assert set(np.unique(dev[observed])) <= {0.0, 1.0}

    def test_truth_is_weighted_vote(self, categorical_prop):
        loss = ZeroOneLoss()
        # Weight source c far above a and b: truths become c's claims.
        weights = np.array([0.1, 0.1, 10.0])
        state = loss.update_truth(categorical_prop, weights)
        np.testing.assert_array_equal(state.column,
                                      categorical_prop.values[2])

    def test_truth_step_minimizes_objective(self, categorical_prop):
        """Eq. 3: the vote winner has minimal weighted 0-1 loss."""
        loss = ZeroOneLoss()
        weights = np.array([2.0, 1.0, 0.5])
        state = loss.update_truth(categorical_prop, weights)
        codes = categorical_prop.values
        for j in range(categorical_prop.n_objects):
            def objective(candidate):
                observed = codes[:, j] >= 0
                return float(
                    (weights[observed] *
                     (codes[observed, j] != candidate)).sum()
                )
            best = objective(int(state.column[j]))
            for candidate in range(len(categorical_prop.codec)):
                assert best <= objective(candidate) + 1e-12


class TestProbabilityVectorLoss:
    def test_distribution_sums_to_one(self, categorical_prop):
        loss = ProbabilityVectorLoss()
        weights = np.array([1.0, 2.0, 0.5])
        state = loss.update_truth(categorical_prop, weights)
        sums = state.distribution.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0)

    def test_column_is_argmax(self, categorical_prop):
        loss = ProbabilityVectorLoss()
        weights = np.ones(3)
        state = loss.update_truth(categorical_prop, weights)
        np.testing.assert_array_equal(
            state.column, state.distribution.argmax(axis=0)
        )

    def test_deviation_closed_form(self, categorical_prop):
        """||p - e_c||^2 computed without materializing one-hots."""
        loss = ProbabilityVectorLoss()
        weights = np.array([1.0, 1.0, 3.0])
        state = loss.update_truth(categorical_prop, weights)
        dev = loss.deviations(state, categorical_prop)
        codes = categorical_prop.values
        n_cats = len(categorical_prop.codec)
        for k in range(3):
            for j in range(categorical_prop.n_objects):
                if codes[k, j] < 0:
                    assert np.isnan(dev[k, j])
                    continue
                one_hot = np.zeros(n_cats)
                one_hot[codes[k, j]] = 1.0
                expected = float(
                    ((state.distribution[:, j] - one_hot) ** 2).sum()
                )
                assert dev[k, j] == pytest.approx(expected)

    def test_agreement_gives_zero_deviation(self, categorical_prop):
        """A unanimous entry has zero deviation for every claimant."""
        loss = ProbabilityVectorLoss()
        weights = np.ones(3)
        state = loss.update_truth(categorical_prop, weights)
        dev = loss.deviations(state, categorical_prop)
        codes = categorical_prop.values
        unanimous = (codes == codes[0]).all(axis=0)
        assert unanimous.any()
        np.testing.assert_allclose(dev[:, unanimous], 0.0, atol=1e-12)


class TestContinuousLosses:
    def test_squared_truth_is_weighted_mean(self, continuous_prop):
        loss = NormalizedSquaredLoss()
        weights = np.array([1.0, 2.0, 0.5])
        state = loss.update_truth(continuous_prop, weights)
        expected = (
            (continuous_prop.values * weights[:, None]).sum(axis=0)
            / weights.sum()
        )
        np.testing.assert_allclose(state.column, expected)

    def test_absolute_truth_is_weighted_median(self, continuous_prop):
        loss = NormalizedAbsoluteLoss()
        weights = np.array([1.0, 1.0, 5.0])
        state = loss.update_truth(continuous_prop, weights)
        # Source c dominates, so its claims are the medians.
        np.testing.assert_array_equal(state.column,
                                      continuous_prop.values[2])

    def test_deviation_normalized_by_entry_std(self, continuous_prop):
        loss = NormalizedAbsoluteLoss()
        weights = np.ones(3)
        state = loss.update_truth(continuous_prop, weights)
        dev = loss.deviations(state, continuous_prop)
        values = continuous_prop.values
        stds = np.std(values, axis=0)
        manual = np.abs(values - state.column[None, :]) / stds[None, :]
        np.testing.assert_allclose(dev, manual)

    def test_squared_penalizes_outliers_more(self, continuous_prop):
        squared = NormalizedSquaredLoss()
        absolute = NormalizedAbsoluteLoss()
        weights = np.ones(3)
        sq_state = squared.update_truth(continuous_prop, weights)
        ab_state = absolute.update_truth(continuous_prop, weights)
        # o3 has an outlier (95 vs 80/79): the mean is dragged toward it,
        # the median is not.
        j = 2
        assert abs(sq_state.column[j] - 95.0) < abs(ab_state.column[j] - 95.0)

    def test_std_cached_in_state(self, continuous_prop):
        """The entry std is computed by the deviation pass, not the
        truth step, and then held as the claim view's cached array."""
        for loss in (NormalizedAbsoluteLoss(), NormalizedSquaredLoss()):
            state = loss.update_truth(continuous_prop, np.ones(3))
            assert "std" not in state.aux
            loss.claim_deviations(state, continuous_prop)
            assert (state.aux["std"]
                    is continuous_prop.claim_view().entry_std())

    def test_objective_contribution_matches_manual(self, continuous_prop):
        loss = NormalizedAbsoluteLoss()
        weights = np.array([2.0, 1.0, 0.1])
        state = loss.update_truth(continuous_prop, weights)
        dev = loss.deviations(state, continuous_prop)
        expected = float(np.nansum(dev * weights[:, None]))
        assert loss.objective_contribution(
            state, continuous_prop, weights
        ) == pytest.approx(expected)


class TestKindMapping:
    """Every solver maps property kinds to losses through one checked
    function: a loss of the wrong kind is refused, naming the
    property, instead of running (or crashing) on the wrong data."""

    @pytest.mark.parametrize("run", [
        lambda ds, **kw: crh(ds, **kw),
        lambda ds, **kw: icrh(ds, config=ICRHConfig(**kw)),
        lambda ds, **kw: TruthService(ds.schema, config=ICRHConfig(**kw)),
        lambda ds, **kw: fine_grained_crh(ds, **kw),
    ], ids=["crh", "icrh", "TruthService", "fine_grained_crh"])
    @pytest.mark.parametrize("override, kind", [
        ({"categorical_loss": "absolute"}, PropertyKind.CATEGORICAL),
        ({"continuous_loss": "zero_one"}, PropertyKind.CONTINUOUS),
    ], ids=["categorical", "continuous"])
    def test_wrong_kind_names_the_property(self, small_weather, run,
                                           override, kind):
        dataset = small_weather.dataset
        name = next(p.name for p in dataset.schema if p.kind is kind)
        with pytest.raises(ValueError,
                           match=re.escape(f"property {name!r}")):
            run(dataset, **override)
