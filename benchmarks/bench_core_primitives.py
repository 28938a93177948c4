"""Micro-benchmarks of the hot paths (timed over multiple rounds).

These are conventional pytest-benchmark timings: the segment kernels
behind the truth step (run on claim views, as the solver runs them), the
claim-graph build behind the fact-based baselines, and a full CRH fit — the numbers that back the
paper's O(KNM)-per-iteration complexity claim (Section 2.5).
"""

import numpy as np
import pytest

from repro.baselines.claims import build_claim_graph
from repro.core import CRHSolver, crh, kernels
from repro.data import (
    CategoricalCodec,
    PropertyObservations,
    categorical,
    continuous,
)
from repro.datasets import (
    ADULT_ROUNDING,
    PAPER_GAMMAS,
    generate_adult_truth,
    simulate_sources,
)


@pytest.fixture(scope="module")
def claim_views():
    """Claim views of a 20-source x 50k-object panel, 20% missing."""
    rng = np.random.default_rng(0)
    values = rng.normal(0, 10, (20, 50_000))
    values[rng.random(values.shape) < 0.2] = np.nan
    codes = rng.integers(0, 8, (20, 50_000)).astype(np.int32)
    codes[rng.random(codes.shape) < 0.2] = -1
    weights = rng.uniform(0.1, 3.0, 20)
    value_view = PropertyObservations(continuous("v"), values).claim_view()
    code_view = PropertyObservations(
        categorical("c"), codes, codec=CategoricalCodec(range(8))
    ).claim_view()
    return value_view, code_view, weights


@pytest.fixture(scope="module")
def adult_dataset():
    truth = generate_adult_truth(3_000, seed=1)
    return simulate_sources(truth, PAPER_GAMMAS,
                            np.random.default_rng(1),
                            rounding=ADULT_ROUNDING)


def test_segment_weighted_median_throughput(benchmark, claim_views):
    view, _, weights = claim_views
    result = benchmark(
        kernels.segment_weighted_median, view.values,
        view.claim_weights(weights), view.indptr,
        group_of_claim=view.object_idx, order=view.median_order(),
    )
    assert result.shape == (50_000,)


def test_segment_weighted_vote_throughput(benchmark, claim_views):
    _, view, weights = claim_views
    result = benchmark(
        kernels.segment_weighted_vote, view.values,
        view.claim_weights(weights), view.indptr,
        n_categories=8, group_of_claim=view.object_idx,
    )
    assert result.shape == (50_000,)


def test_claim_graph_build_throughput(benchmark, adult_dataset):
    graph = benchmark(build_claim_graph, adult_dataset)
    assert graph.n_claims == adult_dataset.n_observations()


def test_crh_fit_throughput(benchmark, adult_dataset):
    result = benchmark(CRHSolver().fit, adult_dataset)
    assert result.converged


def test_crh_linear_in_observations(benchmark):
    """Section 2.5: running time is linear in K*N*M.  Compare per-
    observation cost at 1x vs 4x data; it should stay flat-ish."""
    import time

    def fit_seconds(n_objects: int) -> float:
        truth = generate_adult_truth(n_objects, seed=2)
        dataset = simulate_sources(truth, PAPER_GAMMAS,
                                   np.random.default_rng(2),
                                   rounding=ADULT_ROUNDING)
        started = time.perf_counter()
        crh(dataset, max_iterations=5, tol=0.0)
        return time.perf_counter() - started

    def measure():
        small = min(fit_seconds(2_000) for _ in range(2))
        large = min(fit_seconds(8_000) for _ in range(2))
        return small, large

    small, large = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_obs_small = small / (2_000 * 14 * 8)
    per_obs_large = large / (8_000 * 14 * 8)
    print(f"\nper-observation cost: {per_obs_small * 1e9:.1f} ns (1x) vs "
          f"{per_obs_large * 1e9:.1f} ns (4x)")
    assert per_obs_large < per_obs_small * 2.0


def test_metrics_disabled_overhead(benchmark):
    """A disabled MetricsRegistry hands out shared null instruments:
    per-operation cost must stay within noise of an enabled registry's
    real instruments (one no-op method call vs a float update), so
    instrumented hot paths are safe to leave in place."""
    import time

    from repro.observability.metrics import MetricsRegistry

    rounds = 200_000
    enabled = MetricsRegistry()
    disabled = MetricsRegistry(enabled=False)

    def per_op(registry) -> float:
        counter = registry.counter("ingested_claims")
        histogram = registry.histogram("ingest_seconds")
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(rounds):
                counter.inc()
                histogram.observe(1e-4)
            best = min(best, time.perf_counter() - started)
        return best / rounds

    def measure():
        return per_op(disabled), per_op(enabled)

    off, on = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nper-op cost: disabled {off * 1e9:.0f} ns vs enabled "
          f"{on * 1e9:.0f} ns")
    assert disabled.snapshot() == {"counters": [], "gauges": [],
                                   "histograms": []}
    # the null instruments must not cost more than the real ones (plus
    # a generous absolute floor for timer noise)
    assert off < on * 1.5 + 1e-6
