"""Tests for parallel CRH: the headline check is exact equivalence with
the in-memory solver, since both implement the same optimization."""

import numpy as np
import pytest

from repro import crh
from repro.data import (
    DatasetSchema,
    categorical,
    claims_from_arrays,
    continuous,
)
from repro.data.encoding import MISSING_CODE, CategoricalCodec
from repro.data.schema import PropertyKind
from repro.metrics import error_rate, mnad
from repro.parallel import (
    ParallelCRHConfig,
    parallel_crh,
    prepare_batches,
)
from tests.conftest import make_synthetic


class TestBatchPreparation:
    def test_counts(self, tiny_dataset):
        batches = prepare_batches(tiny_dataset)
        assert batches.n_observations == tiny_dataset.n_observations()
        assert len(batches.continuous) == 30      # 2 props x 15 cells
        assert len(batches.categorical) == 15
        assert batches.n_objects == 5
        assert batches.n_sources == 3

    def test_entry_spaces(self, tiny_dataset):
        batches = prepare_batches(tiny_dataset)
        assert batches.n_continuous_entries == 10   # 2 props x 5 objects
        assert batches.n_categorical_entries == 5
        assert batches.continuous.keys.max() < 10
        assert batches.categorical.keys.max() < 5

    def test_combined_keyed_by_source(self, tiny_dataset):
        batches = prepare_batches(tiny_dataset)
        assert set(np.unique(batches.combined.keys)) == {0, 1, 2}

    def test_code_space_covers_codecs(self, tiny_dataset):
        batches = prepare_batches(tiny_dataset)
        codec = tiny_dataset.property_observations("condition").codec
        assert batches.code_space >= len(codec)


class TestEquivalenceWithSerialCRH:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_weights_and_truths(self, seed):
        dataset, _ = make_synthetic(n_objects=60, seed=seed)
        serial = crh(dataset)
        parallel = parallel_crh(
            dataset, ParallelCRHConfig(max_iterations=100)
        )
        np.testing.assert_allclose(parallel.weights, serial.weights,
                                   atol=1e-9)
        for m in range(len(dataset.schema)):
            np.testing.assert_array_equal(
                parallel.truths.columns[m], serial.truths.columns[m]
            )

    def test_equivalence_with_missing_values(self):
        dataset, _ = make_synthetic(n_objects=80, seed=5)
        rng = np.random.default_rng(6)
        for prop in dataset.properties:
            drop = rng.random(prop.values.shape) < 0.35
            if prop.schema.is_categorical:
                prop.values[drop] = -1
            else:
                prop.values[drop] = np.nan
        serial = crh(dataset)
        parallel = parallel_crh(dataset,
                                ParallelCRHConfig(max_iterations=100))
        np.testing.assert_allclose(parallel.weights, serial.weights,
                                   atol=1e-9)

    def test_equivalence_weather(self, small_weather):
        serial = crh(small_weather.dataset)
        parallel = parallel_crh(small_weather.dataset,
                                ParallelCRHConfig(max_iterations=100))
        assert error_rate(parallel.truths, small_weather.truth) == \
            error_rate(serial.truths, small_weather.truth)
        assert mnad(parallel.truths, small_weather.truth) == \
            pytest.approx(mnad(serial.truths, small_weather.truth))

    def test_independent_of_parallelism(self):
        dataset, _ = make_synthetic(n_objects=50, seed=7)
        reference = None
        for n_mappers, n_reducers in ((1, 1), (4, 4), (7, 3)):
            result = parallel_crh(dataset, ParallelCRHConfig(
                n_mappers=n_mappers, n_reducers=n_reducers,
            ))
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result.weights,
                                           reference.weights)


class TestLossOptions:
    def test_squared_loss_matches_serial(self):
        """The Eq. 13/14 configuration matches the in-memory solver up to
        the statistics job's one-pass variance formula (the classic
        sum-of-squares form a single MapReduce pass allows), which
        perturbs the per-entry stds by ~1e-7 relative."""
        dataset, _ = make_synthetic(n_objects=60, seed=13)
        serial = crh(dataset, continuous_loss="squared")
        parallel = parallel_crh(dataset, ParallelCRHConfig(
            max_iterations=100, continuous_loss="squared",
        ))
        np.testing.assert_allclose(parallel.weights, serial.weights,
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(parallel.truths.columns[0],
                                   serial.truths.columns[0],
                                   rtol=1e-6, atol=1e-6)

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError, match="continuous_loss"):
            ParallelCRHConfig(continuous_loss="huber")


class TestSingleKindDatasets:
    def test_continuous_only(self):
        dataset, truth = make_synthetic(n_objects=40, seed=8)
        continuous_only = dataset.restrict_kind(PropertyKind.CONTINUOUS)
        result = parallel_crh(continuous_only)
        assert mnad(
            result.truths, truth.restrict_kind(PropertyKind.CONTINUOUS)
        ) < 0.2

    def test_categorical_only(self):
        dataset, truth = make_synthetic(n_objects=40, seed=9)
        categorical_only = dataset.restrict_kind(PropertyKind.CATEGORICAL)
        result = parallel_crh(categorical_only)
        assert error_rate(
            result.truths, truth.restrict_kind(PropertyKind.CATEGORICAL)
        ) < 0.2


class TestZeroClaims:
    def test_matches_serial_crh(self):
        """With no claims the weight job outputs nothing; the weights
        and all-missing truths must still match the in-memory solver."""
        schema = DatasetSchema.of(continuous("temp"), categorical("cond"))
        none = (np.empty(0), np.empty(0, np.int32), np.empty(0, np.int32))
        dataset = claims_from_arrays(
            schema, source_ids=["a", "b"], object_ids=np.arange(3),
            columns={"temp": none, "cond": none},
            codecs={"cond": CategoricalCodec(["x", "y"])},
        )
        serial = crh(dataset)
        parallel = parallel_crh(dataset)
        np.testing.assert_array_equal(parallel.weights, serial.weights)
        for m in range(len(schema)):
            np.testing.assert_array_equal(parallel.truths.columns[m],
                                          serial.truths.columns[m])
        assert np.isnan(parallel.truths.columns[0]).all()
        assert (parallel.truths.columns[1] == MISSING_CODE).all()


class TestRunMetadata:
    def test_job_log(self):
        dataset, _ = make_synthetic(n_objects=30, seed=10)
        result = parallel_crh(dataset, ParallelCRHConfig(max_iterations=3,
                                                         tol=0.0))
        names = {entry.name for entry in result.job_log}
        assert names == {"entry-statistics", "truth-continuous",
                         "truth-categorical", "weight-assignment"}
        # 1 stats job + 3 iterations x 3 jobs
        assert len(result.job_log) == 1 + 3 * 3
        assert result.iterations == 3
        assert not result.converged

    def test_simulated_time_positive_and_additive(self):
        dataset, _ = make_synthetic(n_objects=30, seed=11)
        result = parallel_crh(dataset, ParallelCRHConfig(max_iterations=2,
                                                         tol=0.0))
        total = sum(e.simulated_seconds for e in result.job_log)
        assert result.simulated_seconds == pytest.approx(total)

    def test_combiner_compresses_weight_job(self):
        dataset, _ = make_synthetic(n_objects=100, seed=12)
        result = parallel_crh(dataset, ParallelCRHConfig(
            n_mappers=4, max_iterations=1, tol=0.0,
        ))
        weight_jobs = [e for e in result.job_log
                       if e.name == "weight-assignment"]
        assert weight_jobs
        for job in weight_jobs:
            # At most n_mappers * n_sources records shuffle after combine.
            assert job.shuffled_records <= 4 * dataset.n_sources
