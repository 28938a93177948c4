"""Out-of-core mmap backend: chunking, loading, faults, peak memory.

Four groups of guarantees from the out-of-core ISSUE:

* **Chunk iterator properties** — claim-balanced chunks cover every
  object and every claim exactly once, never split an object's claim
  segment, localize exactly like process-backend shards, and the
  chunked entry-std equals the full-view entry-std bitwise.
* **Memmapped loading** — ``load_dataset(mmap=True)`` opens the
  ``claims.npz`` members as read-only memmaps without materializing
  them; unmappable archives (compressed members) fall back to eager
  arrays with the cause recorded; corrupt/truncated archives raise a
  ``ValueError`` naming the problem instead of SIGBUS-ing later.
* **Fault paths** — the same degradation contract as the process
  backend: setup problems (unmappable data, unsupported losses) degrade
  to inline sparse before the run starts (``run_start`` says so), chunk
  reads failing mid-run finish the run inline bit-identically
  (``run_end`` carries the correction).
* **Peak memory** — fitting via ``backend="mmap"`` on a disk-backed
  dataset keeps the traced Python-heap peak a small multiple of one
  chunk, far below materializing the claim arrays.
"""

import io
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.core.solver import CRHConfig, CRHSolver, crh
from repro.data import ClaimsMatrix, DatasetSchema, claims_from_arrays, continuous
from repro.data.chunks import (
    ChunkProperty,
    chunk_bounds,
    chunk_count,
    chunked_entry_std,
    iter_claim_chunks,
)
from repro.data.io import load_dataset, npz_member_memmaps, save_dataset
from repro.engine import (
    MmapBackend,
    MmapBackendError,
    make_backend,
    use_memory_cap,
)
from repro.observability import MemoryTracer


def _claims(seed=0, k=6, n=50, density=0.4, n_props=2):
    """A sparse continuous workload with ragged per-object claim counts."""
    rng = np.random.default_rng(seed)
    schema = DatasetSchema.of(
        *[continuous(f"p{m}") for m in range(n_props)]
    )
    columns = {}
    for m, name in enumerate(schema.names()):
        target = max(1, int(k * n * density))
        cells = np.unique(rng.integers(0, k * n, target, dtype=np.int64))
        columns[name] = (
            rng.normal(float(m), 1.0, len(cells)),
            (cells // n).astype(np.int32),
            (cells % n).astype(np.int32),
        )
    return claims_from_arrays(
        schema,
        source_ids=[f"s{i}" for i in range(k)],
        object_ids=np.arange(n),
        columns=columns,
    )


def _assert_results_identical(a, b):
    for col_a, col_b in zip(a.truths.columns, b.truths.columns):
        assert np.array_equal(col_a, col_b, equal_nan=True)
    assert np.array_equal(a.weights, b.weights)
    assert a.objective_history == b.objective_history
    assert a.iterations == b.iterations


# ----------------------------------------------------------------------
# chunk iterator
# ----------------------------------------------------------------------

class TestChunkIterator:
    def test_chunk_count_ceils_and_validates(self):
        assert chunk_count(0, 10) == 1
        assert chunk_count(1, 10) == 1
        assert chunk_count(10, 10) == 1
        assert chunk_count(11, 10) == 2
        with pytest.raises(ValueError, match=">= 1"):
            chunk_count(5, 0)

    @pytest.mark.parametrize("chunk_claims", [1, 3, 7, 10_000])
    def test_chunks_cover_everything_exactly_once(self, chunk_claims):
        prop = _claims(seed=2).properties[0]
        view = prop.claim_view()
        chunks = list(iter_claim_chunks(prop, chunk_claims))
        # Objects: contiguous, disjoint, complete.
        assert chunks[0].object_start == 0
        assert chunks[-1].object_stop == view.n_objects
        for before, after in zip(chunks, chunks[1:]):
            assert after.object_start == before.object_stop
        # Claims: the concatenated chunk arrays equal the full arrays.
        assert np.array_equal(
            np.concatenate([c.prop.claim_view().values for c in chunks]),
            view.values,
        )
        assert np.array_equal(
            np.concatenate([c.prop.claim_view().source_idx for c in chunks]),
            view.source_idx,
        )
        total = sum(c.claim_stop - c.claim_start for c in chunks)
        assert total == prop.n_claims

    def test_chunks_are_claim_balanced(self):
        prop = _claims(seed=3).properties[0]
        chunk_claims = 11
        for chunk in iter_claim_chunks(prop, chunk_claims):
            size = chunk.claim_stop - chunk.claim_start
            if chunk.object_stop - chunk.object_start > 1:
                # Multi-object chunks stay near the target; only a
                # single giant object may exceed it (never split).
                assert size <= 2 * chunk_claims

    def test_localization_matches_shard_semantics(self):
        prop = _claims(seed=4).properties[0]
        view = prop.claim_view()
        for chunk in iter_claim_chunks(prop, 13):
            local = chunk.prop.claim_view()
            lo, c0 = chunk.object_start, chunk.claim_start
            assert local.n_objects == chunk.object_stop - lo
            assert np.array_equal(
                local.object_idx,
                view.object_idx[c0:chunk.claim_stop] - lo,
            )
            assert local.indptr[0] == 0
            assert local.indptr[-1] == chunk.claim_stop - c0
            assert isinstance(chunk.prop, ChunkProperty)
            assert chunk.prop.schema is prop.schema

    def test_chunk_of_everything_is_one_chunk(self):
        prop = _claims(seed=5).properties[0]
        chunks = list(iter_claim_chunks(prop, prop.n_claims + 100))
        assert len(chunks) == 1
        assert chunks[0].n_chunks == 1
        local = chunks[0].prop.claim_view()
        assert np.array_equal(local.values, prop.claim_view().values)

    def test_bounds_never_split_objects(self):
        prop = _claims(seed=6).properties[0]
        view = prop.claim_view()
        bounds = chunk_bounds(view.indptr, 7)
        # Every boundary is an object index -> every cut aligns with
        # an indptr entry by construction; spot-check monotonicity.
        assert bounds[0] == 0 and bounds[-1] == view.n_objects
        assert np.all(np.diff(bounds) >= 0)

    def test_chunked_entry_std_bit_identical_and_cached(self):
        prop = _claims(seed=7).properties[0]
        reference = prop.claim_view().entry_std().copy()
        prop.claim_view()._std = None  # drop the cache
        chunked = chunked_entry_std(prop, 9)
        assert np.array_equal(chunked, reference)
        # Installed in the view cache: entry_std() is now O(1).
        assert prop.claim_view().entry_std() is chunked


# ----------------------------------------------------------------------
# memmapped loading
# ----------------------------------------------------------------------

class TestMmapLoading:
    def test_members_load_as_memmaps(self, tmp_path):
        claims = _claims(seed=10)
        save_dataset(claims, tmp_path)
        arrays = npz_member_memmaps(tmp_path / "claims.npz")
        assert arrays, "no members mapped"
        for value in arrays.values():
            assert isinstance(value, np.memmap)

    def test_loaded_matrix_matches_eager_load(self, tmp_path):
        claims = _claims(seed=11)
        save_dataset(claims, tmp_path)
        eager = load_dataset(tmp_path)
        mapped = load_dataset(tmp_path, mmap=True)
        assert mapped.mmap_fallback_reason is None
        for mine, theirs in zip(mapped.properties, eager.properties):
            a, b = mine.claim_view(), theirs.claim_view()
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.source_idx, b.source_idx)
            assert np.array_equal(a.object_idx, b.object_idx)
            assert np.array_equal(a.indptr, b.indptr)
            # The value array really is disk-backed, not a copy.
            assert isinstance(np.asarray(a.values).base, np.memmap) \
                or isinstance(a.values, np.memmap)

    def test_compressed_bundle_falls_back_with_reason(self, tmp_path):
        claims = _claims(seed=12)
        save_dataset(claims, tmp_path, compressed=True)
        mapped = load_dataset(tmp_path, mmap=True)
        assert mapped.mmap_fallback_reason is not None
        assert "compressed" in mapped.mmap_fallback_reason
        # The fallback still loads correct (eager) arrays.
        eager = load_dataset(tmp_path)
        for mine, theirs in zip(mapped.properties, eager.properties):
            assert np.array_equal(mine.claim_view().values,
                                  theirs.claim_view().values)

    def test_truncated_archive_raises(self, tmp_path):
        claims = _claims(seed=13)
        save_dataset(claims, tmp_path)
        path = tmp_path / "claims.npz"
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ValueError, match="claims.npz"):
            load_dataset(tmp_path, mmap=True)

    def test_member_shorter_than_header_names_member(self, tmp_path):
        # A structurally valid zip whose npy payload is shorter than
        # its header claims: the load-time size check must name the
        # member instead of leaving a SIGBUS for the first chunk read.
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer,
                                  np.zeros(10_000, dtype=np.float64))
        payload = buffer.getvalue()
        short = payload[:len(payload) // 8]
        path = tmp_path / "claims.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("p0_values.npy", short)
        with pytest.raises(ValueError, match="p0_values"):
            npz_member_memmaps(path)

    def test_garbage_bytes_raise_value_error(self, tmp_path):
        path = tmp_path / "claims.npz"
        path.write_bytes(b"this is not a zip archive at all" * 4)
        with pytest.raises(ValueError, match="corrupt|not a zip"):
            npz_member_memmaps(path)

    def test_non_store_member_is_rejected(self, tmp_path):
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.arange(4.0))
        path = tmp_path / "claims.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("x.npy", buffer.getvalue())
        with pytest.raises(ValueError, match="compressed"):
            npz_member_memmaps(path)


# ----------------------------------------------------------------------
# fault paths (the process-backend degradation contract)
# ----------------------------------------------------------------------

class TestFaultPaths:
    def test_unmappable_data_degrades_at_setup(self, tmp_path):
        claims = _claims(seed=20)
        save_dataset(claims, tmp_path, compressed=True)
        mapped = load_dataset(tmp_path, mmap=True)
        tracer = MemoryTracer()
        degraded = crh(mapped, backend="mmap", max_iterations=8,
                       tracer=tracer)
        sparse = crh(claims, backend="sparse", max_iterations=8)
        _assert_results_identical(sparse, degraded)
        (start,) = [r for r in tracer.records if r["event"] == "run_start"]
        assert start["backend"] == "sparse"
        assert "degraded to inline sparse" in start["backend_reason"]
        assert "without memmaps" in start["backend_reason"]

    def test_unsupported_loss_degrades_at_setup(self):
        # edit_distance has no chunked implementation, so the mmap
        # request falls back before the first chunk is ever read.
        from repro.data import DatasetBuilder
        from repro.data.schema import text

        schema = DatasetSchema.of(text("name"), continuous("score"))
        builder = DatasetBuilder(schema)
        for i in range(10):
            for s in range(4):
                name = ["ann", "anne", "bob"][i % 3]
                builder.add(f"o{i}", f"s{s}", "name",
                            name[:-1] if s == 3 and i % 2 else name)
                builder.add(f"o{i}", f"s{s}", "score", 50.0 + i + s)
        dataset = builder.build()
        tracer = MemoryTracer()
        degraded = crh(dataset, backend="mmap", max_iterations=6,
                       tracer=tracer)
        sparse = crh(dataset, backend="sparse", max_iterations=6)
        _assert_results_identical(sparse, degraded)
        (start,) = [r for r in tracer.records if r["event"] == "run_start"]
        assert start["backend"] == "sparse"
        assert "degraded to inline sparse" in start["backend_reason"]
        assert "edit_distance" in start["backend_reason"]

    @pytest.mark.parametrize("fail_after", [0, 1, 5])
    def test_chunk_read_failure_mid_run_finishes_inline(self, fail_after):
        claims = _claims(seed=22)
        backend = MmapBackend(claims, chunk_claims=16,
                              fail_after=fail_after)
        tracer = MemoryTracer()
        try:
            crashed = crh(backend, backend="mmap", max_iterations=10,
                          tracer=tracer)
        finally:
            backend.close()
        sparse = crh(claims, backend="sparse", max_iterations=10)
        _assert_results_identical(sparse, crashed)
        (end,) = [r for r in tracer.records if r["event"] == "run_end"]
        assert end["backend"] == "sparse"
        assert "mmap backend failed mid-run" in end["backend_reason"]
        assert "injected chunk read failure" in end["backend_reason"]

    def test_start_runner_raises_typed_error(self, tmp_path):
        claims = _claims(seed=23)
        save_dataset(claims, tmp_path, compressed=True)
        mapped = load_dataset(tmp_path, mmap=True)
        backend = MmapBackend(mapped)
        from repro.core.losses import loss_by_name
        with pytest.raises(MmapBackendError, match="without memmaps"):
            backend.start_runner([loss_by_name("squared")])

    def test_close_is_idempotent(self):
        backend = MmapBackend(_claims(seed=24), chunk_claims=8)
        crh(backend, backend="mmap", max_iterations=3)
        backend.close()
        backend.close()

    def test_chunk_claims_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            MmapBackend(_claims(seed=25), chunk_claims=0)
        with pytest.raises(ValueError, match=">= 1"):
            CRHConfig(chunk_claims=0)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

class TestMmapObservability:
    def test_run_start_carries_n_chunks(self):
        claims = _claims(seed=30)
        tracer = MemoryTracer()
        crh(claims, backend="mmap", chunk_claims=16, max_iterations=4,
            tracer=tracer)
        (start,) = [r for r in tracer.records if r["event"] == "run_start"]
        assert start["backend"] == "mmap"
        expected = max(chunk_count(p.n_claims, 16)
                       for p in claims.properties)
        assert start["n_chunks"] == expected
        assert "n_workers" not in start

    def test_auto_resolves_to_mmap_above_cap(self):
        claims = _claims(seed=32)
        with use_memory_cap(1):
            backend = make_backend(claims, "auto")
            try:
                assert backend.name == "mmap"
                assert "memory cap -> mmap" in backend.resolution
            finally:
                backend.close()

    def test_auto_stays_in_ram_below_cap(self):
        claims = _claims(seed=33)
        with use_memory_cap(2**40):
            backend = make_backend(claims, "auto")
            assert backend.name in ("dense", "sparse")


# ----------------------------------------------------------------------
# peak memory
# ----------------------------------------------------------------------

def _disk_workload(tmp_path, k=120, n=3_000, density=0.3, seed=40):
    """A claims-heavy workload saved to disk and reloaded as memmaps."""
    claims = _claims(seed=seed, k=k, n=n, density=density, n_props=1)
    save_dataset(claims, tmp_path)
    mapped = load_dataset(tmp_path, mmap=True)
    assert mapped.mmap_fallback_reason is None
    return mapped


class TestPeakMemory:
    def test_mmap_fit_peak_is_chunk_bounded(self, tmp_path):
        """The property the backend exists for: the traced heap peak of
        an out-of-core fit stays a small multiple of one chunk — far
        below the full claim arrays (which, being memmaps, never enter
        the traced heap at all)."""
        mapped = _disk_workload(tmp_path)
        (prop,) = mapped.properties
        n_claims = prop.n_claims
        chunk_claims = max(1, n_claims // 24)
        # One materialized chunk: float64 values + int32 source/object
        # indices + int64 indptr per object.
        chunk_bytes = chunk_claims * (8 + 4 + 4) + (8 * chunk_claims)
        full_claim_bytes = n_claims * (8 + 4 + 4)
        tracemalloc.start()
        try:
            result = crh(mapped, backend="mmap",
                         chunk_claims=chunk_claims, max_iterations=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result.weights))
        # Budget: a few resident chunks' worth of temporaries, the
        # O(claims) isfinite mask of the weight-step reduction (1 byte
        # per claim), and O(N) columns/stds.
        budget = 8 * chunk_bytes + 2 * n_claims + 64 * mapped.n_objects
        assert peak < budget, (
            f"peak {peak:,} B exceeds chunk budget {budget:,} B "
            f"(chunk {chunk_bytes:,} B, full claims "
            f"{full_claim_bytes:,} B)"
        )
        assert peak < full_claim_bytes // 2, (
            f"peak {peak:,} B is not materially below the full claim "
            f"arrays ({full_claim_bytes:,} B)"
        )

    def test_mmap_matches_sparse_on_disk_workload(self, tmp_path):
        mapped = _disk_workload(tmp_path, k=40, n=800, seed=41)
        eager = load_dataset(tmp_path)
        sparse = crh(eager, backend="sparse", max_iterations=6)
        mmap = crh(mapped, backend="mmap", chunk_claims=700,
                   max_iterations=6)
        _assert_results_identical(sparse, mmap)


# ----------------------------------------------------------------------
# warm backend reuse
# ----------------------------------------------------------------------

class TestBackendReuse:
    def test_caller_built_backend_survives_fits(self):
        claims = _claims(seed=50)
        backend = MmapBackend(claims, chunk_claims=16)
        try:
            first = crh(backend, backend="mmap", max_iterations=8)
            second = crh(backend, backend="mmap", max_iterations=8)
        finally:
            backend.close()
        sparse = crh(claims, backend="sparse", max_iterations=8)
        _assert_results_identical(sparse, first)
        _assert_results_identical(sparse, second)

    def test_solver_class_config_chunks(self):
        claims = _claims(seed=51)
        solver = CRHSolver(CRHConfig(backend="mmap", chunk_claims=8,
                                     max_iterations=6))
        result = solver.fit(claims)
        sparse = CRHSolver(CRHConfig(backend="sparse",
                                     max_iterations=6)).fit(claims)
        _assert_results_identical(sparse, result)
