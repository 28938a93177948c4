"""Tests for the sparse claims representation (repro.data.claims_matrix).

Covers the lossless dense round trip, canonical claim-view ordering,
builder equivalence (``build_sparse`` vs ``from_dense(build())``),
subsetting, memory accounting, and profile equality across
representations.
"""

import numpy as np
import pytest

from repro import crh
from repro.data import (
    ClaimsMatrix,
    DatasetBuilder,
    DatasetSchema,
    categorical,
    claims_from_arrays,
    continuous,
    profile_dataset,
)
from repro.data.claims_matrix import PropertyClaims, claim_nbytes
from repro.data.encoding import CategoricalCodec
from repro.data.table import MultiSourceDataset, PropertyObservations


def _mixed_dataset(seed=0, k=7, n=30, density=0.5):
    rng = np.random.default_rng(seed)
    schema = DatasetSchema.of(continuous("temp"), categorical("cond"))
    builder = DatasetBuilder(schema)
    for src in range(k):
        for obj in range(n):
            if rng.random() < density:
                builder.add(f"o{obj}", f"s{src}", "temp",
                            float(rng.normal(20, 5)), timestamp=obj % 3)
            if rng.random() < density:
                builder.add(f"o{obj}", f"s{src}", "cond",
                            str(rng.choice(["sun", "rain", "snow"])),
                            timestamp=obj % 3)
    return builder


class TestRoundTrip:
    def test_dense_sparse_dense_is_lossless(self):
        dense = _mixed_dataset().build()
        back = ClaimsMatrix.from_dense(dense).to_dense()
        assert back.source_ids == dense.source_ids
        assert back.object_ids == dense.object_ids
        for original, restored in zip(dense.properties, back.properties):
            assert np.array_equal(original.values, restored.values,
                                  equal_nan=True)
        assert np.array_equal(back.object_timestamps,
                              dense.object_timestamps)

    def test_counts_match_dense(self):
        dense = _mixed_dataset().build()
        sparse = ClaimsMatrix.from_dense(dense)
        assert sparse.n_claims() == dense.n_observations()
        assert sparse.n_entries() == dense.n_entries()
        assert sparse.density() == pytest.approx(dense.density())

    def test_build_sparse_equals_from_dense(self):
        builder = _mixed_dataset(seed=3)
        dense = builder.build()
        direct = builder.build_sparse()
        via_dense = ClaimsMatrix.from_dense(dense)
        assert direct.source_ids == via_dense.source_ids
        assert direct.object_ids == via_dense.object_ids
        for a, b in zip(direct.properties, via_dense.properties):
            va, vb = a.claim_view(), b.claim_view()
            assert np.array_equal(va.values, vb.values)
            assert np.array_equal(va.source_idx, vb.source_idx)
            assert np.array_equal(va.object_idx, vb.object_idx)
            assert np.array_equal(va.indptr, vb.indptr)

    def test_build_sparse_keeps_last_claim_per_cell(self):
        schema = DatasetSchema.of(continuous("x"))
        builder = DatasetBuilder(schema)
        builder.add("o", "s", "x", 1.0)
        builder.add("o", "s", "x", 2.0)   # overwrite, like build()
        sparse = builder.build_sparse()
        view = sparse.properties[0].claim_view()
        assert view.n_claims == 1
        assert view.values[0] == 2.0
        assert sparse.to_dense().properties[0].values[0, 0] == 2.0


class TestCanonicalOrder:
    def test_claim_view_is_object_major_source_ascending(self):
        dense = _mixed_dataset(seed=5).build()
        for prop in ClaimsMatrix.from_dense(dense).properties:
            view = prop.claim_view()
            order_key = view.object_idx.astype(np.int64) * dense.n_sources \
                + view.source_idx
            assert np.all(np.diff(order_key) > 0)
            # indptr brackets each object's claims.
            for i in range(view.n_objects):
                lo, hi = view.indptr[i], view.indptr[i + 1]
                assert np.all(view.object_idx[lo:hi] == i)

    def test_dense_claim_view_matches_sparse(self):
        dense = _mixed_dataset(seed=6).build()
        sparse = ClaimsMatrix.from_dense(dense)
        for dp, sp in zip(dense.properties, sparse.properties):
            dv, sv = dp.claim_view(), sp.claim_view()
            assert np.array_equal(dv.values, sv.values)
            assert np.array_equal(dv.source_idx, sv.source_idx)
            assert np.array_equal(dv.object_idx, sv.object_idx)
            assert np.array_equal(dv.indptr, sv.indptr)


class TestSubsetting:
    def test_select_objects_matches_dense(self):
        dense = _mixed_dataset(seed=7).build()
        sparse = ClaimsMatrix.from_dense(dense)
        # A repeated index repeats the object's claims, as the dense
        # table repeats its column.
        for indices in (np.array([2, 3, 11, 17]), np.array([1, 1, 2]),
                        np.array([], dtype=np.int64)):
            expected = ClaimsMatrix.from_dense(
                dense.select_objects(indices))
            actual = sparse.select_objects(indices)
            assert actual.object_ids == expected.object_ids
            for a, b in zip(actual.properties, expected.properties):
                av, bv = a.claim_view(), b.claim_view()
                assert np.array_equal(av.values, bv.values)
                assert np.array_equal(av.source_idx, bv.source_idx)
                assert np.array_equal(av.object_idx, bv.object_idx)
                assert np.array_equal(av.indptr, bv.indptr)

    def test_select_sources_matches_dense(self):
        dense = _mixed_dataset(seed=8).build()
        sparse = ClaimsMatrix.from_dense(dense)
        indices = np.array([0, 4, 5])
        expected = ClaimsMatrix.from_dense(dense.select_sources(indices))
        actual = sparse.select_sources(indices)
        assert actual.source_ids == expected.source_ids
        for a, b in zip(actual.properties, expected.properties):
            assert np.array_equal(a.claim_view().values,
                                  b.claim_view().values)
            assert np.array_equal(a.claim_view().source_idx,
                                  b.claim_view().source_idx)


class TestMemoryAccounting:
    def test_nbytes_projections_are_symmetric(self):
        dense = _mixed_dataset(seed=9).build()
        sparse = ClaimsMatrix.from_dense(dense)
        # Actual bytes on one side equal the projection on the other.
        assert dense.sparse_nbytes() == sparse.nbytes()
        assert sparse.dense_nbytes() == dense.nbytes()

    def test_claim_nbytes_formula(self):
        assert claim_nbytes(10, 4, continuous=True) == 10 * 16 + 5 * 8
        assert claim_nbytes(10, 4, continuous=False) == 10 * 12 + 5 * 8

    def test_sparse_wins_at_low_density(self):
        dense = _mixed_dataset(seed=10, k=20, n=200, density=0.05).build()
        assert dense.sparse_nbytes() < dense.nbytes()


class TestClaimsFromArrays:
    def test_builds_without_dense_allocation(self):
        schema = DatasetSchema.of(continuous("x"))
        sparse = claims_from_arrays(
            schema,
            source_ids=("a", "b"),
            object_ids=("o1", "o2", "o3"),
            columns={"x": (
                np.array([1.0, 2.0, 3.0]),
                np.array([0, 1, 0], dtype=np.int32),
                np.array([0, 0, 2], dtype=np.int32),
            )},
        )
        assert isinstance(sparse, ClaimsMatrix)
        view = sparse.properties[0].claim_view()
        assert view.n_claims == 3
        dense = sparse.to_dense()
        assert dense.properties[0].values[0, 0] == 1.0
        assert dense.properties[0].values[1, 0] == 2.0
        assert dense.properties[0].values[0, 2] == 3.0
        assert np.isnan(dense.properties[0].values[1, 2])


class TestCodeRange:
    """Codec-backed claims outside ``[0, len(codec))`` are refused when
    the property is built, on sparse and dense input alike, so no vote
    ever scores a code in another label's or another object's cell."""

    SCHEMA = DatasetSchema.of(categorical("cond"))
    CODEC = CategoricalCodec(["a", "b", "z"])

    def sparse(self, codes):
        return claims_from_arrays(
            self.SCHEMA, source_ids=("s0", "s1", "s2"), object_ids=("o0",),
            columns={"cond": (np.array(codes, dtype=np.int32),
                              np.arange(3, dtype=np.int32),
                              np.zeros(3, dtype=np.int32))},
            codecs={"cond": self.CODEC},
        )

    def dense(self, codes):
        return MultiSourceDataset(
            self.SCHEMA, source_ids=("s0", "s1", "s2"), object_ids=("o0",),
            properties=[PropertyObservations(
                self.SCHEMA[0], np.array(codes, dtype=np.int32)[:, None],
                codec=self.CODEC)],
        )

    @pytest.mark.parametrize("codes, bad", [([-1, -1, 0], -1),
                                            ([0, 3, 1], 3)])
    def test_sparse_input_rejects_out_of_range_codes(self, codes, bad):
        with pytest.raises(ValueError,
                           match=rf"'cond': code {bad} is outside"):
            self.sparse(codes)

    def test_dense_input_rejects_code_past_codec(self):
        """A dense matrix is checked when the property is built, not
        later when a solver or ``dataset_to_records`` reads it; only
        ``-1`` (missing) may lie outside the codec's range."""
        for codes, bad in (([0, 3, 1], 3), ([0, -2, 1], -2)):
            with pytest.raises(ValueError,
                               match=rf"'cond': code {bad} is outside"):
                self.dense(codes)

    def test_from_dense_drops_missing_code(self):
        """In a dense matrix ``-1`` marks a missing claim, so it never
        reaches the range check: only ``s2``'s claim is voted."""
        dataset = self.dense([-1, -1, 0])
        sparse = ClaimsMatrix.from_dense(dataset)
        assert sparse.properties[0].n_claims == 1
        for backend in ("dense", "sparse"):
            truths = crh(dataset, backend=backend).truths
            assert truths.columns[0].tolist() == [0]


class TestProfileParity:
    def test_profile_identical_across_representations(self):
        dense = _mixed_dataset(seed=11).build()
        sparse = ClaimsMatrix.from_dense(dense)
        dense_profile = profile_dataset(dense)
        sparse_profile = profile_dataset(sparse)
        assert dense_profile.properties == sparse_profile.properties
        assert dense_profile.sources == sparse_profile.sources
        assert dense_profile.n_observations == sparse_profile.n_observations
        assert dense_profile.recommended_backend \
            == sparse_profile.recommended_backend

    def test_property_claims_entry_mask(self):
        dense = _mixed_dataset(seed=12).build()
        for dp, sp in zip(dense.properties,
                          ClaimsMatrix.from_dense(dense).properties):
            assert isinstance(sp, PropertyClaims)
            assert np.array_equal(dp.entry_mask(), sp.entry_mask())
