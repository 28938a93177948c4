"""Property-based fuzzing of the claim-graph substrate.

The fact-based baselines all trust the claim graph's group reductions;
these tests hammer its invariants under randomly generated datasets
(including missing values, which the curated fixtures only lightly
exercise).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.claims import build_claim_graph
from repro.data import (
    DatasetSchema,
    MultiSourceDataset,
    PropertyObservations,
    categorical,
    continuous,
)
from repro.data.encoding import MISSING_CODE, CategoricalCodec

LABELS = ("a", "b", "c", "d")


@st.composite
def sparse_datasets(draw):
    """Random mixed datasets with 20-60% missing cells."""
    k = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.integers(min_value=3, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    missing = draw(st.floats(min_value=0.2, max_value=0.6))
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 5, (k, n)).round(1)
    values[rng.random((k, n)) < missing] = np.nan
    codes = rng.integers(0, len(LABELS), (k, n)).astype(np.int32)
    codes[rng.random((k, n)) < missing] = MISSING_CODE
    # Guarantee at least one observation overall.
    values[0, 0] = 1.0
    codes[0, 0] = 0
    schema = DatasetSchema.of(continuous("x"), categorical("c", LABELS))
    return MultiSourceDataset(
        schema=schema,
        source_ids=[f"s{i}" for i in range(k)],
        object_ids=[f"o{i}" for i in range(n)],
        properties=[
            PropertyObservations(schema=schema[0], values=values),
            PropertyObservations(schema=schema[1], values=codes,
                                 codec=CategoricalCodec.from_domain(LABELS)),
        ],
    )


@given(sparse_datasets())
@settings(max_examples=40)
def test_counts_are_consistent(dataset):
    graph = build_claim_graph(dataset)
    assert graph.n_claims == dataset.n_observations()
    assert graph.n_entries == dataset.n_entries()
    assert graph.claims_per_source().sum() == graph.n_claims
    assert graph.claimants_per_fact().sum() == graph.n_claims
    assert graph.claimants_per_entry().sum() == graph.n_claims
    assert graph.facts_per_entry().sum() == graph.n_facts


@given(sparse_datasets())
@settings(max_examples=40)
def test_fact_segments_are_well_formed(dataset):
    graph = build_claim_graph(dataset)
    starts = graph.entry_fact_start
    assert starts[0] == 0 and starts[-1] == graph.n_facts
    assert (np.diff(starts) >= 1).all()        # every entry has a fact
    assert (np.diff(graph.fact_entry) >= 0).all()
    # Every claim's fact belongs to an entry that claim's cell observes.
    claim_entries = graph.fact_entry[graph.claim_fact]
    assert (claim_entries >= 0).all()
    assert (claim_entries < graph.n_entries).all()


@given(sparse_datasets(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_argmax_matches_bruteforce(dataset, seed):
    graph = build_claim_graph(dataset)
    rng = np.random.default_rng(seed)
    scores = rng.normal(0, 1, graph.n_facts)
    winners = graph.argmax_fact_per_entry(scores)
    starts = graph.entry_fact_start
    for e in range(graph.n_entries):
        segment = slice(starts[e], starts[e + 1])
        assert scores[winners[e]] == scores[segment].max()


@given(sparse_datasets())
@settings(max_examples=40)
def test_sum_reductions_match_bruteforce(dataset):
    graph = build_claim_graph(dataset)
    rng = np.random.default_rng(0)
    per_claim = rng.random(graph.n_claims)
    by_fact = graph.sum_claims_by_fact(per_claim)
    by_source = graph.sum_claims_by_source(per_claim)
    np.testing.assert_allclose(by_fact.sum(), per_claim.sum())
    np.testing.assert_allclose(by_source.sum(), per_claim.sum())
    # Spot-check one fact and one source against explicit masking.
    fact = int(rng.integers(0, graph.n_facts))
    np.testing.assert_allclose(
        by_fact[fact], per_claim[graph.claim_fact == fact].sum()
    )
    source = int(rng.integers(0, graph.n_sources))
    np.testing.assert_allclose(
        by_source[source], per_claim[graph.claim_source == source].sum()
    )


@given(sparse_datasets())
@settings(max_examples=30)
def test_baselines_stay_finite_on_fuzzed_data(dataset):
    """The fact-based methods must not blow up on arbitrary sparse data."""
    from repro.baselines import resolver_by_name
    for method in ("Investment", "2-Estimates", "AccuSim"):
        result = resolver_by_name(method).fit(dataset)
        assert np.isfinite(result.weights).all(), method


@given(sparse_datasets())
@settings(max_examples=10)
def test_solver_backends_bit_identical(dataset):
    """Dense, sparse, and process execution of the full CRH solve agree
    to the bit on fuzzed mixed datasets (ISSUE PR-4 acceptance)."""
    from repro.core.solver import crh

    results = {
        name: crh(dataset, backend=name, max_iterations=5)
        for name in ("dense", "sparse")
    }
    results["process"] = crh(dataset, backend="process", max_iterations=5,
                             n_workers=2)
    for name in ("sparse", "process"):
        for col_a, col_b in zip(results["dense"].truths.columns,
                                results[name].truths.columns):
            assert np.array_equal(col_a, col_b, equal_nan=True)
        assert np.array_equal(results["dense"].weights,
                              results[name].weights)
        assert results["dense"].objective_history \
            == results[name].objective_history
