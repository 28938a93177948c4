"""Unit tests for the shared execution kernels (repro.core.kernels).

Every segment kernel is checked against the scalar oracles in
``tests/kernel_oracles.py`` on randomized segmented inputs, plus the
edge cases the engines rely on: empty segments, zero-total-weight
segments, value ties, and single-claim segments.  Also pinned: the
weighted median's cached sort order and precomputed effective weights
being pure reuse, that order's dtype rule and its localization to
contiguous object ranges (what shards and chunks read), the vote
kernel's sparse-scores fallback (same winners, O(claims) peak memory
instead of O(categories * objects)), and the categorical kernels' flat
``bincount`` scores against an ``np.add.at`` reference, bit for bit.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import column_std
from repro.data import ClaimsMatrix
from repro.data.encoding import MISSING_CODE

from .kernel_oracles import (
    scatter_add_scores,
    weighted_mean,
    weighted_median,
    weighted_mode,
)
from .conftest import examples
from .test_engine_equivalence import _fuzz_dataset


def _random_segments(rng, n_groups, max_size=6, allow_empty=True):
    """Random CSR layout: (values, weights, indptr) with some empties."""
    sizes = rng.integers(0 if allow_empty else 1, max_size + 1, n_groups)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    n = int(indptr[-1])
    values = rng.normal(0.0, 3.0, n)
    # Inject ties so the half-mass rule's ordering matters.
    ties = rng.random(n) < 0.3
    values[ties] = np.round(values[ties])
    weights = rng.random(n)
    weights[rng.random(n) < 0.2] = 0.0
    return values, weights, indptr


def _segment_case(seed: int, n_groups: int = 14, max_size: int = 24):
    """Random segmented claims: ties, empty and zero-total groups."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max_size, n_groups)
    sizes[rng.integers(0, n_groups)] = 0
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    n = int(indptr[-1])
    group = np.repeat(np.arange(n_groups), sizes)
    values = np.round(rng.normal(size=n), 1)
    weights = rng.random(n) * rng.choice([0.0, 1e-7, 1.0, 1e7], n)
    if n_groups > 1 and sizes[1] > 0:
        weights[group == 1] = 0.0  # zero-total group -> uniform fallback
    codes = rng.integers(0, 6, n).astype(np.int32)
    return values, weights, codes, indptr, group


class TestSegmentReductions:
    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_median_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values, weights, indptr = _random_segments(rng, 40)
        result = kernels.segment_weighted_median(values, weights, indptr)
        for g in range(40):
            lo, hi = indptr[g], indptr[g + 1]
            if lo == hi:
                assert np.isnan(result[g])
            else:
                expected = weighted_median(values[lo:hi], weights[lo:hi])
                assert result[g] == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_mean_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values, weights, indptr = _random_segments(rng, 40)
        result = kernels.segment_weighted_mean(values, weights, indptr)
        for g in range(40):
            lo, hi = indptr[g], indptr[g + 1]
            if lo == hi:
                assert np.isnan(result[g])
            else:
                expected = weighted_mean(values[lo:hi], weights[lo:hi])
                assert result[g] == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_vote_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        _, weights, indptr = _random_segments(rng, 40)
        n = int(indptr[-1])
        codes = rng.integers(0, 4, n).astype(np.int32)
        result = kernels.segment_weighted_vote(codes, weights, indptr,
                                               n_categories=4)
        for g in range(40):
            lo, hi = indptr[g], indptr[g + 1]
            if lo == hi:
                assert result[g] == MISSING_CODE
            else:
                w = weights[lo:hi]
                if w.sum() <= 0:   # the kernels' uniform fallback
                    w = np.ones_like(w)
                expected = weighted_mode(codes[lo:hi], w, 4)
                assert result[g] == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_segment_std_matches_column_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values, _, indptr = _random_segments(rng, 30)
        result = kernels.segment_std(values, indptr)
        for g in range(30):
            lo, hi = indptr[g], indptr[g + 1]
            column = np.full((hi - lo, 1), np.nan)
            column[:, 0] = values[lo:hi]
            if lo == hi:
                assert result[g] == 1.0
            else:
                assert result[g] == pytest.approx(
                    float(column_std(column)[0])
                )

    def test_label_distribution_sums_to_one(self):
        rng = np.random.default_rng(0)
        _, weights, indptr = _random_segments(rng, 25)
        weights = weights + 0.05  # keep totals positive
        codes = rng.integers(0, 3, int(indptr[-1])).astype(np.int32)
        distribution, column = kernels.segment_label_distribution(
            codes, weights, indptr, n_categories=3
        )
        sizes = np.diff(indptr)
        sums = distribution.sum(axis=0)
        assert np.allclose(sums[sizes > 0], 1.0)
        assert np.all(sums[sizes == 0] == 0.0)
        assert np.all(column[sizes == 0] == MISSING_CODE)
        assert np.array_equal(
            column[sizes > 0],
            distribution.argmax(axis=0).astype(np.int32)[sizes > 0],
        )


class TestEdgeCases:
    def test_all_segments_empty(self):
        indptr = np.zeros(4, dtype=np.int64)
        empty = np.empty(0)
        assert np.all(np.isnan(
            kernels.segment_weighted_mean(empty, empty, indptr)
        ))
        assert np.all(np.isnan(
            kernels.segment_weighted_median(empty, empty, indptr)
        ))
        votes = kernels.segment_weighted_vote(
            empty.astype(np.int32), empty, indptr, n_categories=2
        )
        assert np.all(votes == MISSING_CODE)

    def test_empty_codec_votes_missing(self):
        """A categorical property with no category yet (an empty codec)
        resolves every group to missing instead of crashing."""
        indptr = np.zeros(3, dtype=np.int64)
        codes = np.empty(0, dtype=np.int32)
        weights = np.empty(0)
        votes = kernels.segment_weighted_vote(
            codes, weights, indptr, n_categories=0)
        assert votes.dtype == np.int32
        assert votes.tolist() == [MISSING_CODE, MISSING_CODE]
        distribution, column = kernels.segment_label_distribution(
            codes, weights, indptr, n_categories=0)
        assert distribution.shape == (0, 2)
        assert column.tolist() == [MISSING_CODE, MISSING_CODE]

    def test_zero_weight_group_falls_back_to_uniform(self):
        values = np.array([1.0, 5.0, 9.0])
        weights = np.zeros(3)
        indptr = np.array([0, 3], dtype=np.int64)
        # Uniform fallback: plain median / plain mean.
        assert kernels.segment_weighted_median(values, weights,
                                               indptr)[0] == 5.0
        assert kernels.segment_weighted_mean(values, weights,
                                             indptr)[0] == 5.0

    def test_vote_tie_breaks_toward_smallest_code(self):
        codes = np.array([2, 0], dtype=np.int32)
        weights = np.ones(2)
        indptr = np.array([0, 2], dtype=np.int64)
        assert kernels.segment_weighted_vote(codes, weights, indptr,
                                             n_categories=3)[0] == 0

    def test_median_half_mass_rule(self):
        # Cumulative weight reaches exactly W/2 at the first value.
        values = np.array([1.0, 2.0])
        weights = np.array([0.5, 0.5])
        indptr = np.array([0, 2], dtype=np.int64)
        assert kernels.segment_weighted_median(values, weights,
                                               indptr)[0] == 1.0

    def test_interleaved_empty_segments(self):
        values = np.array([3.0, 7.0])
        weights = np.ones(2)
        indptr = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        result = kernels.segment_weighted_mean(values, weights, indptr)
        assert np.isnan(result[0])
        assert result[1] == 3.0
        assert np.isnan(result[2])
        assert result[3] == 7.0
        assert np.isnan(result[4])


class TestClaimDeviations:
    def test_zero_one(self):
        codes = np.array([0, 1, 1], dtype=np.int32)
        truths = np.array([0, 0], dtype=np.int32)
        object_idx = np.array([0, 0, 1], dtype=np.int32)
        dev = kernels.zero_one_claim_deviations(codes, truths, object_idx)
        assert dev.tolist() == [0.0, 1.0, 1.0]

    def test_probability_closed_form(self):
        distribution = np.array([[0.75, 0.0], [0.25, 1.0]])
        codes = np.array([0, 1, 1], dtype=np.int32)
        object_idx = np.array([0, 0, 1], dtype=np.int32)
        dev = kernels.probability_claim_deviations(codes, distribution,
                                                   object_idx)
        # ||p - e_c||^2 computed against explicit one-hots.
        for claim, (c, i) in enumerate(zip(codes, object_idx)):
            one_hot = np.zeros(2)
            one_hot[c] = 1.0
            expected = float(((distribution[:, i] - one_hot) ** 2).sum())
            assert dev[claim] == pytest.approx(expected)

    def test_continuous_deviations_normalized_by_std(self):
        values = np.array([2.0, 4.0])
        truths = np.array([3.0])
        stds = np.array([2.0])
        object_idx = np.array([0, 0], dtype=np.int32)
        sq = kernels.squared_claim_deviations(values, truths, stds,
                                              object_idx)
        ab = kernels.absolute_claim_deviations(values, truths, stds,
                                               object_idx)
        assert sq.tolist() == [0.5, 0.5]
        assert ab.tolist() == [0.5, 0.5]

    def test_accumulate_skips_non_finite(self):
        dev = np.array([1.0, np.nan, 2.0, np.inf])
        source_idx = np.array([0, 0, 1, 1], dtype=np.int32)
        totals, counts = kernels.accumulate_source_deviations(
            dev, source_idx, n_sources=3
        )
        assert totals.tolist() == [1.0, 2.0, 0.0]
        assert counts.tolist() == [1.0, 1.0, 0.0]

    def test_scatter_roundtrip(self):
        from repro.data import DatasetBuilder, DatasetSchema, continuous
        builder = DatasetBuilder(DatasetSchema.of(continuous("x")))
        builder.add("o1", "s1", "x", 1.0)
        builder.add("o2", "s2", "x", 2.0)
        prop = builder.build().properties[0]
        view = prop.claim_view()
        matrix = kernels.scatter_claims_to_matrix(view, view.values)
        assert np.array_equal(matrix, prop.values, equal_nan=True)


class TestMedianOrderReuse:
    """A cached median order and effective weights are pure reuse."""

    @pytest.mark.parametrize("seed", range(5))
    def test_median_order_and_effective_are_pure_reuse(self, seed):
        values, weights, codes, indptr, group = _segment_case(seed)
        plain = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group)
        order = np.lexsort((np.asarray(values, dtype=np.float64), group))
        effective = kernels.effective_claim_weights(weights, indptr, group)
        reused = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group,
            order=order, effective=effective)
        repeated = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group,
            order=order, effective=effective)
        assert np.array_equal(plain, reused, equal_nan=True)
        assert np.array_equal(plain, repeated, equal_nan=True)

    def test_claim_view_caches_one_order(self):
        dataset = _fuzz_dataset(3)
        sparse = ClaimsMatrix.from_dense(dataset)
        view = sparse.properties[0].claim_view()
        order = view.median_order()
        assert view.median_order() is order
        assert order.dtype == np.int32
        assert np.array_equal(
            order, np.lexsort((view.values, view.object_idx)))

    def test_order_dtype_widens_at_two_to_the_31(self, monkeypatch):
        """int32 while every row index fits, int64 from 2**31 claims.

        The rule is checked at its boundary on the helper, and routed
        through ``median_order`` by widening the helper's answer, so no
        2**31-claim view is ever built."""
        from repro.data import claims_matrix

        assert claims_matrix.order_dtype(0) == np.int32
        assert claims_matrix.order_dtype(2**31 - 1) == np.int32
        assert claims_matrix.order_dtype(2**31) == np.int64
        assert claims_matrix.order_dtype(2**40) == np.int64
        seen = []

        def wide(n_claims):
            seen.append(n_claims)
            return np.dtype(np.int64)

        monkeypatch.setattr(claims_matrix, "order_dtype", wide)
        view = ClaimsMatrix.from_dense(
            _fuzz_dataset(4)).properties[0].claim_view()
        order = view.median_order()
        assert seen == [view.n_claims]
        assert order.dtype == np.int64
        assert np.array_equal(
            order, np.lexsort((view.values, view.object_idx)))


@st.composite
def claims_and_range(draw):
    """Continuous CSR claims with value ties and empty objects, plus a
    random contiguous object range ``[lo, hi)``."""
    n_objects = draw(st.integers(0, 12))
    sizes = draw(st.lists(st.integers(0, 6), min_size=n_objects,
                          max_size=n_objects))
    n_claims = sum(sizes)
    values = draw(st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 2.5]),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=n_claims, max_size=n_claims))
    lo = draw(st.integers(0, n_objects))
    hi = draw(st.integers(lo, n_objects))
    return (np.array(values, dtype=np.float64),
            np.array(sizes, dtype=np.int64), lo, hi)


class TestMedianOrderLocalization:
    """Why process shards and mmap chunks can share one sort: the full
    order restricted to a contiguous object range, rebased by the
    range's first claim row, is that range's own lexsort."""

    @settings(max_examples=examples(60))
    @given(case=claims_and_range())
    def test_full_order_slice_is_local_lexsort(self, case):
        from repro.data import PropertyClaims, continuous

        values, sizes, lo, hi = case
        object_idx = np.repeat(np.arange(sizes.size), sizes)
        starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        prop = PropertyClaims(
            continuous("x"), values,
            source_idx=np.arange(values.size) - starts,
            object_idx=object_idx, n_objects=sizes.size,
            n_sources=max(int(sizes.max(initial=0)), 1),
        )
        view = prop.claim_view()
        c0, c1 = int(view.indptr[lo]), int(view.indptr[hi])
        localized = view.median_order()[c0:c1] - c0
        expected = np.lexsort((values[c0:c1], object_idx[c0:c1] - lo))
        assert localized.dtype == np.int32
        assert np.array_equal(localized, expected)


class TestVoteSparseFallback:
    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_and_dense_paths_agree(self, seed, monkeypatch):
        values, weights, codes, indptr, group = _segment_case(seed)
        dense = kernels.segment_weighted_vote(
            codes, weights, indptr, 6, group_of_claim=group)
        monkeypatch.setattr(kernels, "VOTE_DENSE_SCORE_CELLS", 0)
        sparse = kernels.segment_weighted_vote(
            codes, weights, indptr, 6, group_of_claim=group)
        assert np.array_equal(dense, sparse)

    def test_empty_groups_stay_missing_on_sparse_path(self, monkeypatch):
        monkeypatch.setattr(kernels, "VOTE_DENSE_SCORE_CELLS", 0)
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        codes = np.array([4, 4, 1], dtype=np.int32)
        weights = np.array([0.5, 0.25, 1.0])
        winners = kernels.segment_weighted_vote(codes, weights, indptr, 6)
        assert winners.tolist() == [4, MISSING_CODE, 1]

    def test_huge_vocabulary_peak_memory_is_bounded(self):
        """Above the cell threshold, peak allocation tracks the claim
        count, not the (categories x groups) score matrix — the dense
        path here would allocate 50_000 * 120 * 8 bytes = ~46 MiB."""
        rng = np.random.default_rng(0)
        n_categories, n_groups, n = 50_000, 120, 2_000
        assert n_categories * n_groups > kernels.VOTE_DENSE_SCORE_CELLS
        group = np.sort(rng.integers(0, n_groups, n))
        indptr = np.searchsorted(group, np.arange(n_groups + 1)).astype(
            np.int64)
        codes = rng.integers(0, n_categories, n).astype(np.int64)
        weights = rng.random(n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            winners = kernels.segment_weighted_vote(
                codes, weights, indptr, n_categories,
                group_of_claim=group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert winners.shape == (n_groups,)
        assert peak < 2 * 1024 * 1024, f"peak {peak} bytes"
        # and the winners match a directly computed per-group argmax
        for g in range(0, n_groups, 17):
            lo, hi = indptr[g], indptr[g + 1]
            if lo == hi:
                assert winners[g] == MISSING_CODE
                continue
            scores: dict[int, float] = {}
            for c, w in zip(codes[lo:hi], weights[lo:hi]):
                scores[int(c)] = scores.get(int(c), 0.0) + w
            best = max(sorted(scores), key=lambda c: scores[c])
            assert winners[g] == best


@st.composite
def categorical_claims(draw):
    """Segmented categorical claims: ties, duplicate ``(group, code)``
    cells, empty and zero-total-weight groups, ``L`` from 0 to 5."""
    n_categories = draw(st.integers(0, 5))
    n_groups = draw(st.integers(0, 12))
    weight = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    sizes, codes, weights = [], [], []
    for _ in range(n_groups):
        size = draw(st.integers(0, 8)) if n_categories else 0
        sizes.append(size)
        if size:
            codes += draw(st.lists(st.integers(0, n_categories - 1),
                                   min_size=size, max_size=size))
            weights += draw(st.lists(weight, min_size=size,
                                     max_size=size))
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    weights = np.array(weights, dtype=np.float64)
    zero_group = draw(st.integers(-1, n_groups - 1))
    if zero_group >= 0:
        weights[indptr[zero_group]:indptr[zero_group + 1]] = 0.0
    return (np.array(codes, dtype=np.int32), weights, indptr,
            n_categories)


def _reference_distribution(codes, weights, indptr, n_categories):
    """``(scores, distribution)`` built from ``np.add.at`` scores."""
    group = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    effective, totals = kernels.effective_claim_weights(weights, indptr,
                                                        group)
    scores = scatter_add_scores(codes, effective, group, n_categories,
                                indptr.shape[0] - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        distribution = scores / totals[None, :]
    distribution[:, totals <= 0] = 0.0
    return scores, distribution


class TestBincountScoresMatchScatterAdd:
    """The flat ``bincount`` score accumulation reproduces ``np.add.at``
    scores bit for bit, so winners and distributions match the
    reference on every input shape."""

    @settings(max_examples=examples(300))
    @given(categorical_claims())
    def test_label_distribution_is_bit_identical(self, case):
        codes, weights, indptr, n_categories = case
        distribution, column = kernels.segment_label_distribution(
            codes, weights, indptr, n_categories)
        scores, expected = _reference_distribution(
            codes, weights, indptr, n_categories)
        assert distribution.shape == expected.shape
        assert distribution.tobytes() == expected.tobytes()
        empty = np.diff(indptr) == 0
        if n_categories:
            want = expected.argmax(axis=0).astype(np.int32)
            want[empty] = MISSING_CODE
        else:
            want = np.full(empty.shape, MISSING_CODE, dtype=np.int32)
        assert column.tolist() == want.tolist()

    @settings(max_examples=examples(300))
    @given(categorical_claims())
    def test_vote_winners_match_on_both_paths(self, case):
        codes, weights, indptr, n_categories = case
        n_groups = indptr.shape[0] - 1
        scores, _ = _reference_distribution(codes, weights, indptr,
                                            n_categories)
        want = np.full(n_groups, MISSING_CODE, dtype=np.int32)
        if n_categories:
            occupied = np.diff(indptr) > 0
            want[occupied] = scores.argmax(axis=0)[occupied]
        cells = n_categories * n_groups
        # The dense score matrix runs up to the threshold, the
        # claimed-cells path one cell past it.
        for threshold in (cells, cells - 1):
            with mock.patch.object(kernels, "VOTE_DENSE_SCORE_CELLS",
                                   threshold):
                winners = kernels.segment_weighted_vote(
                    codes, weights, indptr, n_categories)
            assert winners.dtype == np.int32
            assert winners.tolist() == want.tolist()
