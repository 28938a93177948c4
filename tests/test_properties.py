"""Cross-cutting property-based tests on solver invariants.

These use hypothesis to generate small random multi-source datasets and
check structural invariants that must hold for *any* input: equivariance
to source/object relabeling, truths being claimed values for the
median/vote truth updates, and lossless record round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import crh
from repro.data import (
    DatasetBuilder,
    DatasetSchema,
    MultiSourceDataset,
    PropertyObservations,
    categorical,
    continuous,
    dataset_to_records,
    records_to_dataset,
)
from repro.data.encoding import CategoricalCodec
from tests.conftest import examples

# ----------------------------------------------------------------------
# dataset strategy
# ----------------------------------------------------------------------

LABELS = ("r", "g", "b")


@st.composite
def small_datasets(draw):
    """Random fully-observed mixed-type datasets, 4-6 sources, 5-15 objects."""
    k = draw(st.integers(min_value=4, max_value=6))
    n = draw(st.integers(min_value=5, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 10, (k, n)).round(1)
    codes = rng.integers(0, len(LABELS), (k, n)).astype(np.int32)
    schema = DatasetSchema.of(continuous("x"), categorical("c", LABELS))
    codec = CategoricalCodec.from_domain(LABELS)
    return MultiSourceDataset(
        schema=schema,
        source_ids=[f"s{i}" for i in range(k)],
        object_ids=[f"o{i}" for i in range(n)],
        properties=[
            PropertyObservations(schema=schema[0], values=values),
            PropertyObservations(schema=schema[1], values=codes,
                                 codec=codec),
        ],
    )


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

@given(small_datasets(), st.permutations(range(4)))
@settings(max_examples=examples(25))
def test_source_relabeling_equivariance(dataset, perm4):
    """Permuting sources permutes the weights and leaves truths intact."""
    k = dataset.n_sources
    perm = list(perm4) + list(range(4, k))
    permuted = dataset.select_sources(np.array(perm))
    base = crh(dataset, max_iterations=20)
    shuffled = crh(permuted, max_iterations=20)
    np.testing.assert_allclose(shuffled.weights, base.weights[perm],
                               atol=1e-9)
    for m in range(2):
        np.testing.assert_array_equal(shuffled.truths.columns[m],
                                      base.truths.columns[m])


@given(small_datasets())
@settings(max_examples=examples(25))
def test_object_relabeling_equivariance(dataset):
    """Permuting objects permutes truth rows and leaves weights intact."""
    n = dataset.n_objects
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    permuted = dataset.select_objects(perm)
    base = crh(dataset, max_iterations=20)
    shuffled = crh(permuted, max_iterations=20)
    np.testing.assert_allclose(shuffled.weights, base.weights, atol=1e-9)
    for m in range(2):
        np.testing.assert_array_equal(shuffled.truths.columns[m],
                                      base.truths.columns[m][perm])


@given(small_datasets())
@settings(max_examples=examples(25))
def test_truths_are_claimed_values(dataset):
    """With the vote/median truth updates, every resolved value was
    actually claimed by some source for that entry."""
    result = crh(dataset, max_iterations=20)
    x = dataset.property_observations("x").values
    c = dataset.property_observations("c").values
    for j in range(dataset.n_objects):
        assert result.truths.columns[0][j] in x[:, j]
        assert result.truths.columns[1][j] in c[:, j]


@given(small_datasets())
@settings(max_examples=examples(25))
def test_weights_finite_and_nonnegative(dataset):
    result = crh(dataset, max_iterations=20)
    assert np.isfinite(result.weights).all()
    assert (result.weights >= -1e-12).all()


@given(small_datasets())
@settings(max_examples=examples(20))
def test_records_roundtrip_preserves_observations(dataset):
    rebuilt = records_to_dataset(dataset_to_records(dataset),
                                 dataset.schema)
    assert rebuilt.n_observations() == dataset.n_observations()
    result_a = crh(dataset, max_iterations=10)
    result_b = crh(rebuilt, max_iterations=10)
    # Same data (possibly reordered) -> same objective trajectory length
    # and same multiset of weights.
    np.testing.assert_allclose(np.sort(result_a.weights),
                               np.sort(result_b.weights), atol=1e-9)


@given(small_datasets(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=examples(20))
def test_continuous_scale_invariance(dataset, scale):
    """Scaling a continuous property rescales its truths and leaves the
    weights unchanged — the std normalization of Eq. 15 at work."""
    scaled_values = dataset.property_observations("x").values * scale
    scaled = MultiSourceDataset(
        schema=dataset.schema,
        source_ids=dataset.source_ids,
        object_ids=dataset.object_ids,
        properties=[
            PropertyObservations(schema=dataset.schema[0],
                                 values=scaled_values),
            dataset.properties[1],
        ],
    )
    base = crh(dataset, max_iterations=20)
    rescaled = crh(scaled, max_iterations=20)
    np.testing.assert_allclose(rescaled.weights, base.weights, atol=1e-9)
    np.testing.assert_allclose(
        rescaled.truths.columns[0], base.truths.columns[0] * scale,
        rtol=1e-9,
    )


@given(small_datasets())
@settings(max_examples=examples(15))
def test_unanimous_dataset_resolves_to_consensus(dataset):
    """If every source claims identical values, those are the truths and
    all sources are equally (perfectly) reliable."""
    x = dataset.property_observations("x").values
    c = dataset.property_observations("c").values
    unanimous = MultiSourceDataset(
        schema=dataset.schema,
        source_ids=dataset.source_ids,
        object_ids=dataset.object_ids,
        properties=[
            PropertyObservations(
                schema=dataset.schema[0],
                values=np.tile(x[0], (dataset.n_sources, 1)),
            ),
            PropertyObservations(
                schema=dataset.schema[1],
                values=np.tile(c[0], (dataset.n_sources, 1)),
                codec=dataset.properties[1].codec,
            ),
        ],
    )
    result = crh(unanimous, max_iterations=20)
    np.testing.assert_array_equal(result.truths.columns[0], x[0])
    np.testing.assert_array_equal(result.truths.columns[1], c[0])
    assert np.allclose(result.weights, result.weights[0])
