"""Backend equivalence fuzz suite: dense, sparse, process and mmap.

The ISSUE's central invariant: the execution backend is a memory/layout
choice, never a numerical one.  Every engine (batch solver, MapReduce,
streaming) must produce **bit-identical** truths, weights and objective
history on every execution backend — dense, sparse CSR, the
shared-memory process pool, and the out-of-core mmap chunker — across
loss configurations, chunk sizes, and adversarial inputs (varying
sparsity, value ties, all-missing sources and objects).  A hypothesis
fuzz at the bottom drives all four backends over random datasets and
chunk sizes in one property.

The slow test asserts the memory win the sparse backend exists for:
>= 5x lower peak footprint on a 5%-density workload.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import CRHConfig, CRHSolver, crh
from repro.data import (
    ClaimsMatrix,
    DatasetBuilder,
    DatasetSchema,
    categorical,
    claims_from_arrays,
    continuous,
)
from repro.engine import ProcessBackend
from repro.observability import MemoryTracer
from repro.parallel import ParallelCRHConfig, parallel_crh
from repro.streaming import icrh
from tests.conftest import examples

LOSS_CONFIGS = [
    ("zero_one", "absolute"),
    ("zero_one", "squared"),
    ("probability", "absolute"),
    ("probability", "squared"),
]
#: the runner backends also check Huber, the other loss whose truth
#: step reads the shipped median order
RUNNER_LOSS_CONFIGS = LOSS_CONFIGS + [("zero_one", "huber")]


def _fuzz_dataset(seed, k=8, n=40, density=0.45, timestamps=True):
    """Random mixed dataset with ties, empty sources and empty objects."""
    rng = np.random.default_rng(seed)
    schema = DatasetSchema.of(
        continuous("temp"), categorical("cond"), continuous("wind")
    )
    builder = DatasetBuilder(schema)
    dead_source = int(rng.integers(0, k))      # claims nothing
    dead_object = int(rng.integers(0, n))      # nothing claimed about it
    labels = ["a", "b", "c", "d"]
    added = False
    for src in range(k):
        for obj in range(n):
            if src == dead_source or obj == dead_object:
                continue
            stamp = (obj % 4) if timestamps else 0
            if rng.random() < density:
                # Round half the values so exact ties exercise the
                # median half-mass rule and the vote tie-break.
                value = float(rng.normal(10, 4))
                if rng.random() < 0.5:
                    value = round(value)
                builder.add(f"o{obj}", f"s{src}", "temp", value,
                            timestamp=stamp)
                added = True
            if rng.random() < density:
                builder.add(f"o{obj}", f"s{src}", "cond",
                            labels[int(rng.integers(0, 4))],
                            timestamp=stamp)
            if rng.random() < density * 0.5:
                builder.add(f"o{obj}", f"s{src}", "wind",
                            float(rng.exponential(5)), timestamp=stamp)
    assert added
    return builder.build()


def _assert_truths_equal(a, b):
    for col_a, col_b in zip(a.columns, b.columns):
        assert np.array_equal(col_a, col_b, equal_nan=True)


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cat_loss,cont_loss", LOSS_CONFIGS)
    def test_dense_sparse_bit_identical(self, seed, cat_loss, cont_loss):
        dataset = _fuzz_dataset(seed)
        results = {
            name: crh(dataset, categorical_loss=cat_loss,
                      continuous_loss=cont_loss, backend=name,
                      max_iterations=12)
            for name in ("dense", "sparse")
        }
        _assert_truths_equal(results["dense"].truths,
                             results["sparse"].truths)
        assert np.array_equal(results["dense"].weights,
                              results["sparse"].weights)
        assert results["dense"].objective_history \
            == results["sparse"].objective_history
        assert results["dense"].iterations == results["sparse"].iterations

    def test_sparse_input_auto_backend(self):
        dataset = _fuzz_dataset(7)
        sparse_input = ClaimsMatrix.from_dense(dataset)
        from_dense = crh(dataset, backend="dense", max_iterations=10)
        from_sparse = crh(sparse_input, max_iterations=10)  # auto -> sparse
        _assert_truths_equal(from_dense.truths, from_sparse.truths)
        assert np.array_equal(from_dense.weights, from_sparse.weights)
        assert from_dense.objective_history == from_sparse.objective_history

    def test_extreme_sparsity(self):
        dataset = _fuzz_dataset(11, k=12, n=80, density=0.06)
        dense = crh(dataset, backend="dense", max_iterations=10)
        sparse = crh(dataset, backend="sparse", max_iterations=10)
        _assert_truths_equal(dense.truths, sparse.truths)
        assert np.array_equal(dense.weights, sparse.weights)

    def test_solver_class_honors_config_backend(self):
        dataset = _fuzz_dataset(3)
        dense = CRHSolver(CRHConfig(backend="dense",
                                    max_iterations=8)).fit(dataset)
        sparse = CRHSolver(CRHConfig(backend="sparse",
                                     max_iterations=8)).fit(dataset)
        assert np.array_equal(dense.weights, sparse.weights)
        _assert_truths_equal(dense.truths, sparse.truths)


class TestParallelEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cont_loss", ["absolute", "squared"])
    def test_dense_sparse_bit_identical(self, seed, cont_loss):
        dataset = _fuzz_dataset(seed + 20, k=6, n=25)
        config = ParallelCRHConfig(continuous_loss=cont_loss,
                                   max_iterations=6)
        results = {
            name: parallel_crh(data, config)
            for name, data in (("dense", dataset),
                               ("sparse", ClaimsMatrix.from_dense(dataset)))
        }
        _assert_truths_equal(results["dense"].truths,
                             results["sparse"].truths)
        assert np.array_equal(results["dense"].weights,
                              results["sparse"].weights)
        assert results["dense"].iterations == results["sparse"].iterations

    def test_parallel_matches_serial_on_sparse_backend(self):
        """Section 2.7's exactness claim must survive the sparse path."""
        dataset = ClaimsMatrix.from_dense(_fuzz_dataset(31, k=6, n=25))
        serial = crh(dataset, backend="sparse")
        parallel = parallel_crh(dataset,
                                ParallelCRHConfig(max_iterations=100))
        _assert_truths_equal(serial.truths, parallel.truths)
        np.testing.assert_allclose(parallel.weights, serial.weights,
                                   atol=1e-9)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_sparse_bit_identical(self, seed):
        dataset = _fuzz_dataset(seed + 40, k=6, n=30)
        results = {
            "dense": icrh(dataset, window=1),
            "sparse": icrh(ClaimsMatrix.from_dense(dataset), window=1),
        }
        _assert_truths_equal(results["dense"].truths,
                             results["sparse"].truths)
        assert np.array_equal(results["dense"].weights,
                              results["sparse"].weights)
        assert np.array_equal(results["dense"].weight_history,
                              results["sparse"].weight_history)
        assert results["dense"].chunk_sizes == results["sparse"].chunk_sizes


def _synthetic_sparse(k, n, density, seed=0):
    """Build a sparse continuous workload without any dense allocation."""
    rng = np.random.default_rng(seed)
    schema = DatasetSchema.of(
        continuous("p0"), continuous("p1"), continuous("p2")
    )
    target = int(k * n * density)
    columns = {}
    for m, name in enumerate(schema.names()):
        cells = np.unique(
            rng.integers(0, k * n, int(target * 1.2), dtype=np.int64)
        )[:target]
        source_idx = (cells // n).astype(np.int32)
        object_idx = (cells % n).astype(np.int32)
        values = rng.normal(float(m), 1.0, len(cells))
        columns[name] = (values, source_idx, object_idx)
    return claims_from_arrays(
        schema,
        source_ids=[f"s{i}" for i in range(k)],
        object_ids=np.arange(n),
        columns=columns,
    )


def _peak_bytes(dataset, backend):
    tracemalloc.start()
    try:
        crh(dataset, backend=backend, max_iterations=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.slow
class TestMemoryFootprint:
    def test_sparse_peak_at_least_5x_lower(self):
        """ISSUE acceptance: K=50, N=100k, 5% density -> >= 5x win."""
        dataset = _synthetic_sparse(k=50, n=100_000, density=0.05)
        sparse_peak = _peak_bytes(dataset, "sparse")
        dense_peak = _peak_bytes(dataset, "dense")
        ratio = dense_peak / sparse_peak
        assert ratio >= 5.0, (
            f"dense peak {dense_peak / 2**20:.1f} MiB, sparse peak "
            f"{sparse_peak / 2**20:.1f} MiB - only {ratio:.1f}x"
        )

    def test_sparse_peak_within_claim_bytes_bound(self):
        """Absolute bar: the sparse solve's heap peak stays within 2.5x
        the claims matrix's own array bytes."""
        dataset = _synthetic_sparse(k=50, n=100_000, density=0.05)
        claim_bytes = dataset.nbytes()
        sparse_peak = _peak_bytes(dataset, "sparse")
        assert sparse_peak <= 2.5 * claim_bytes, (
            f"sparse peak {sparse_peak / 2**20:.1f} MiB is "
            f"{sparse_peak / claim_bytes:.2f}x the "
            f"{claim_bytes / 2**20:.1f} MiB of claim arrays; bar is 2.5x"
        )

    def test_backends_still_identical_at_scale(self):
        dataset = _synthetic_sparse(k=20, n=5_000, density=0.05, seed=3)
        dense = crh(dataset, backend="dense", max_iterations=5)
        sparse = crh(dataset, backend="sparse", max_iterations=5)
        _assert_truths_equal(dense.truths, sparse.truths)
        assert np.array_equal(dense.weights, sparse.weights)
        assert dense.objective_history == sparse.objective_history


def _text_dataset(seed, k=4, n=12):
    """Conflicting name strings: edit_distance has no worker kernel, so
    this dataset forces the process backend's setup-time fallback."""
    from repro.data.schema import text
    rng = np.random.default_rng(seed)
    schema = DatasetSchema.of(text("name"), continuous("score"))
    builder = DatasetBuilder(schema)
    names = ["john smith", "jane doe", "acme corp"]
    for i in range(n):
        for s in range(k):
            name = names[i % len(names)]
            if s == k - 1 and i % 2:
                name = name[:-1]
            builder.add(f"s{s}", f"o{i}", "name", name)
            builder.add(f"s{s}", f"o{i}", "score",
                        float(rng.normal(50, 10)) if s == k - 1
                        else 50.0 + i)
    return builder.build()


class TestProcessEquivalence:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("cat_loss,cont_loss", RUNNER_LOSS_CONFIGS)
    def test_three_way_bit_identical(self, seed, cat_loss, cont_loss):
        dataset = _fuzz_dataset(seed + 60)
        backend = ProcessBackend(dataset, n_workers=2)
        try:
            results = {
                name: crh(dataset, categorical_loss=cat_loss,
                          continuous_loss=cont_loss, backend=name,
                          max_iterations=12)
                for name in ("dense", "sparse")
            }
            results["process"] = crh(backend, categorical_loss=cat_loss,
                                     continuous_loss=cont_loss,
                                     backend="process", max_iterations=12)
        finally:
            backend.close()
        for name in ("sparse", "process"):
            _assert_truths_equal(results["dense"].truths,
                                 results[name].truths)
            assert np.array_equal(results["dense"].weights,
                                  results[name].weights)
            assert results["dense"].objective_history \
                == results[name].objective_history
            assert results["dense"].iterations == results[name].iterations

    def test_warm_pool_reuse_across_fits(self):
        """A caller-built backend keeps its worker pool across fits."""
        dataset = _fuzz_dataset(65, k=6, n=30)
        backend = ProcessBackend(dataset, n_workers=2)
        try:
            first = crh(backend, backend="process", max_iterations=8)
            second = crh(backend, backend="process", max_iterations=8)
        finally:
            backend.close()
        sparse = crh(dataset, backend="sparse", max_iterations=8)
        for result in (first, second):
            _assert_truths_equal(sparse.truths, result.truths)
            assert np.array_equal(sparse.weights, result.weights)
            assert sparse.objective_history == result.objective_history

    def test_close_is_idempotent(self):
        backend = ProcessBackend(_fuzz_dataset(66, k=4, n=15), n_workers=1)
        crh(backend, backend="process", max_iterations=3)
        backend.close()
        backend.close()

    def test_worker_crash_degrades_to_sparse(self):
        """A mid-run worker failure finishes inline, bit-identically."""
        dataset = _fuzz_dataset(67, k=6, n=30)
        backend = ProcessBackend(dataset, n_workers=2, fail_after=6)
        tracer = MemoryTracer()
        try:
            crashed = crh(backend, backend="process", max_iterations=10,
                          tracer=tracer)
        finally:
            backend.close()
        sparse = crh(dataset, backend="sparse", max_iterations=10)
        _assert_truths_equal(sparse.truths, crashed.truths)
        assert np.array_equal(sparse.weights, crashed.weights)
        assert sparse.objective_history == crashed.objective_history
        (end,) = [r for r in tracer.records if r["event"] == "run_end"]
        assert end["backend"] == "sparse"
        assert "worker failed mid-run" in end["backend_reason"]
        assert "injected worker failure" in end["backend_reason"]

    def test_unsupported_loss_degrades_at_setup(self):
        """Losses without a worker implementation fall back before the
        pool ever runs, and run_start already reports sparse."""
        dataset = _text_dataset(68)
        tracer = MemoryTracer()
        degraded = crh(dataset, backend="process", max_iterations=8,
                       tracer=tracer)
        sparse = crh(dataset, backend="sparse", max_iterations=8)
        _assert_truths_equal(sparse.truths, degraded.truths)
        assert np.array_equal(sparse.weights, degraded.weights)
        assert sparse.objective_history == degraded.objective_history
        (start,) = [r for r in tracer.records
                    if r["event"] == "run_start"]
        assert start["backend"] == "sparse"
        assert "degraded to inline sparse" in start["backend_reason"]
        assert "edit_distance" in start["backend_reason"]

    def test_parallel_efficiency_traced(self):
        dataset = _fuzz_dataset(69, k=6, n=30)
        tracer = MemoryTracer()
        crh(dataset, backend="process", max_iterations=5, tracer=tracer)
        (start,) = [r for r in tracer.records
                    if r["event"] == "run_start"]
        (end,) = [r for r in tracer.records if r["event"] == "run_end"]
        assert start["n_workers"] >= 1
        assert 0.0 <= end["parallel_efficiency"] <= 1.0


class TestBaselineMidRunDegradation:
    """Kernel-native baselines finish inline when their runner dies."""

    # Voting is one truth step (one task per worker, a few chunk
    # reads), so its failures must come early; CATD iterates and can
    # also die several rounds in.
    @pytest.mark.parametrize("backend_name", ["process", "mmap"])
    @pytest.mark.parametrize("method,fail_after", [
        ("CATD", 0), ("CATD", 7), ("Voting", 0), ("Voting", 1),
    ])
    def test_runner_failure_finishes_inline(self, method, fail_after,
                                            backend_name):
        from repro.baselines import resolver_by_name
        from repro.engine.mmap import MmapBackend

        dataset = _fuzz_dataset(90)
        if backend_name == "process":
            backend = ProcessBackend(dataset, n_workers=2,
                                     fail_after=fail_after)
            wording = "process worker failed mid-run"
        else:
            backend = MmapBackend(dataset, chunk_claims=16,
                                  fail_after=fail_after)
            wording = "mmap backend failed mid-run"
        try:
            crashed = resolver_by_name(
                method, backend=backend_name).fit(backend)
        finally:
            backend.close()
        sparse = resolver_by_name(method, backend="sparse").fit(dataset)
        _assert_truths_equal(sparse.truths, crashed.truths)
        assert np.array_equal(sparse.weights, crashed.weights)
        assert crashed.backend == "sparse"
        assert wording in crashed.backend_reason
        assert "finishing inline on sparse claims" \
            in crashed.backend_reason


def _assert_results_identical(reference, other):
    """Truths, weights, objective trace and iteration count, bitwise."""
    _assert_truths_equal(reference.truths, other.truths)
    assert np.array_equal(reference.weights, other.weights)
    assert reference.objective_history == other.objective_history
    assert reference.iterations == other.iterations


class TestMmapEquivalence:
    """The out-of-core chunker is a layout choice, never a numerical one."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("cat_loss,cont_loss", RUNNER_LOSS_CONFIGS)
    def test_three_way_bit_identical(self, seed, cat_loss, cont_loss):
        dataset = _fuzz_dataset(seed + 80)
        results = {
            name: crh(dataset, categorical_loss=cat_loss,
                      continuous_loss=cont_loss, backend=name,
                      max_iterations=12)
            for name in ("dense", "sparse", "mmap")
        }
        for name in ("sparse", "mmap"):
            _assert_results_identical(results["dense"], results[name])

    @pytest.mark.parametrize("chunk_claims", [1, 7, 100_000])
    def test_chunk_size_never_changes_bits(self, chunk_claims):
        """chunk=1 (one claim resident at a time) through chunk >= all
        claims (a single chunk) must all match the sparse reference."""
        dataset = _fuzz_dataset(83)
        reference = crh(dataset, backend="sparse", max_iterations=10)
        chunked = crh(dataset, backend="mmap", chunk_claims=chunk_claims,
                      max_iterations=10)
        _assert_results_identical(reference, chunked)

    def test_disk_memmaps_end_to_end(self, tmp_path):
        """Save, reload memory-mapped, run out-of-core: same bits."""
        from repro.data.io import load_dataset, save_dataset

        dataset = _fuzz_dataset(84)
        reference = crh(dataset, backend="dense", max_iterations=10)
        save_dataset(ClaimsMatrix.from_dense(dataset), tmp_path)
        mapped = load_dataset(tmp_path, mmap=True)
        assert mapped.mmap_fallback_reason is None
        result = crh(mapped, backend="mmap", chunk_claims=13,
                     max_iterations=10)
        _assert_results_identical(reference, result)

    def test_random_initializer_bit_identical(self):
        """The chunked initializer hook must consume the seeded
        generator in canonical claim order."""
        dataset = _fuzz_dataset(85)
        reference = crh(dataset, backend="sparse", initializer="random",
                        seed=7, max_iterations=8)
        chunked = crh(dataset, backend="mmap", chunk_claims=5,
                      initializer="random", seed=7, max_iterations=8)
        _assert_results_identical(reference, chunked)


class _CountingNumpy:
    """The ``numpy`` module as a patched module sees it, with
    ``lexsort`` counted."""

    def __init__(self) -> None:
        self.sorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def lexsort(self, keys, axis=-1):
        self.sorts += 1
        return np.lexsort(keys, axis=axis)


class TestSortOnce:
    """The weighted median's ``(object, value)`` sort runs once per
    continuous property per claim set: the initializer, every
    iteration and every later solve read the view's cached order, and
    mmap chunks read their slice of it instead of sorting again."""

    @pytest.fixture
    def counter(self, monkeypatch):
        from repro.core import kernels
        from repro.data import claims_matrix

        counting = _CountingNumpy()
        monkeypatch.setattr(claims_matrix, "np", counting)
        monkeypatch.setattr(kernels, "np", counting)
        return counting

    @staticmethod
    def _claims(seed):
        claims = ClaimsMatrix.from_dense(_fuzz_dataset(seed))
        n_continuous = sum(p.schema.is_continuous for p in claims.properties)
        assert n_continuous == 2
        return claims, n_continuous

    def test_sparse_solve_sorts_each_continuous_property_once(self,
                                                              counter):
        claims, n_continuous = self._claims(90)
        first = crh(claims, backend="sparse", continuous_loss="absolute",
                    max_iterations=10)
        assert first.iterations > 1
        assert counter.sorts == n_continuous
        again = crh(claims, backend="sparse", continuous_loss="absolute",
                    max_iterations=10)
        assert counter.sorts == n_continuous
        _assert_results_identical(first, again)

    def test_from_dense_shares_cached_views(self):
        dataset = _fuzz_dataset(92)
        claims = ClaimsMatrix.from_dense(dataset)
        for dense, sparse in zip(dataset.properties, claims.properties):
            assert sparse.claim_view() is dense.claim_view()

    def test_repeat_auto_solve_on_dense_input_sorts_nothing(self,
                                                            counter):
        dataset = _fuzz_dataset(93)
        first = crh(dataset, continuous_loss="absolute", max_iterations=10)
        assert first.backend == "sparse"
        before = counter.sorts
        again = crh(dataset, continuous_loss="absolute", max_iterations=10)
        assert counter.sorts == before
        _assert_results_identical(first, again)

    def test_mmap_sorts_do_not_grow_with_iterations(self, counter):
        counts = {}
        for iterations in (3, 10):
            claims, _ = self._claims(91)
            before = counter.sorts
            result = crh(claims, backend="mmap", chunk_claims=7,
                         continuous_loss="absolute",
                         max_iterations=iterations, tol=0.0,
                         patience=iterations)
            assert result.backend == "mmap"
            assert result.iterations == iterations
            counts[iterations] = counter.sorts - before
        assert counts[3] == counts[10] > 0


class TestBackendFuzz:
    """Hypothesis property: all four backends agree bitwise, always."""

    @settings(max_examples=examples(10))
    @given(
        seed=st.integers(0, 10_000),
        density=st.floats(0.15, 0.7),
        chunk_claims=st.sampled_from([1, 2, 3, 7, 10_000]),
        losses=st.sampled_from(LOSS_CONFIGS),
    )
    def test_four_way_bit_identity(self, seed, density, chunk_claims,
                                   losses):
        cat_loss, cont_loss = losses
        dataset = _fuzz_dataset(seed, k=5, n=18, density=density)
        kwargs = dict(categorical_loss=cat_loss,
                      continuous_loss=cont_loss, max_iterations=8)
        reference = crh(dataset, backend="dense", **kwargs)
        others = {
            "sparse": crh(dataset, backend="sparse", **kwargs),
            "mmap": crh(dataset, backend="mmap",
                        chunk_claims=chunk_claims, **kwargs),
            "process": crh(dataset, backend="process", n_workers=2,
                           **kwargs),
        }
        for result in others.values():
            _assert_results_identical(reference, result)


#: Resolvers whose truth/weight steps run through the runner protocol,
#: so process/mmap requests execute natively.  Everything else iterates
#: a global structure (fact graph, GTM's coupled Bayesian updates) and
#: degrades — traced — to inline sparse execution.  Keep in sync with
#: the docs/RESOLVERS.md support matrix.
KERNEL_NATIVE_RESOLVERS = frozenset(
    {"CRH", "Mean", "Median", "Voting", "CATD"}
)


def _resolver_names():
    from repro.baselines import available_resolvers

    return sorted(available_resolvers())


class TestResolverBackendEquivalence:
    """Every registered resolver is a kernel client: all four backends
    produce bit-identical truths and weights, either natively through
    the runner protocol or via a traced degradation to inline sparse."""

    @pytest.mark.parametrize("method", _resolver_names())
    @pytest.mark.parametrize("seed", [0, 1])
    def test_four_way_bit_identical(self, method, seed):
        from repro.baselines import resolver_by_name

        dataset = _fuzz_dataset(seed, k=6, n=25)
        reference = resolver_by_name(method, backend="dense").fit(dataset)
        others = {
            "sparse": resolver_by_name(
                method, backend="sparse").fit(dataset),
            "process": resolver_by_name(
                method, backend="process", n_workers=2).fit(dataset),
            "mmap": resolver_by_name(
                method, backend="mmap", chunk_claims=7).fit(dataset),
        }
        for result in others.values():
            _assert_truths_equal(reference.truths, result.truths)
            assert np.array_equal(reference.weights, result.weights)
            assert reference.iterations == result.iterations
        # Stamps: every result says where it actually ran and why.
        assert reference.backend == "dense"
        assert others["sparse"].backend == "sparse"
        for backend in ("process", "mmap"):
            result = others[backend]
            if method in KERNEL_NATIVE_RESOLVERS:
                assert result.backend == backend
                assert result.backend_reason is not None
            else:
                assert result.backend == "sparse"
                assert ("degraded to inline sparse execution"
                        in result.backend_reason)
                assert backend in result.backend_reason


class TestResolverDegradation:
    """Losses without worker/chunk kernels (and methods with no kernel
    formulation at all) fall back to inline sparse execution with the
    refusal traced on the result."""

    PARALLEL_BACKENDS = [("process", {"n_workers": 2}),
                        ("mmap", {"chunk_claims": 7})]

    @pytest.mark.parametrize("backend,kwargs", PARALLEL_BACKENDS)
    def test_catd_text_loss_degrades(self, backend, kwargs):
        """edit_distance is outside WORKER_LOSSES/CHUNK_LOSSES, so a
        text property forces CATD's session to refuse the runner."""
        from repro.baselines import resolver_by_name

        dataset = _text_dataset(90)
        degraded = resolver_by_name(
            "CATD", backend=backend, **kwargs).fit(dataset)
        sparse = resolver_by_name("CATD", backend="sparse").fit(dataset)
        _assert_truths_equal(sparse.truths, degraded.truths)
        assert np.array_equal(sparse.weights, degraded.weights)
        assert degraded.backend == "sparse"
        assert ("degraded to inline sparse execution"
                in degraded.backend_reason)
        assert "edit_distance" in degraded.backend_reason

    @pytest.mark.parametrize("backend,kwargs", PARALLEL_BACKENDS)
    def test_gtm_traces_inline_only_reason(self, backend, kwargs):
        """GTM has no runner formulation: the session degrades up front
        and the reason names the method, not a loss."""
        from repro.baselines import resolver_by_name

        dataset = _fuzz_dataset(91, k=5, n=20)
        result = resolver_by_name(
            "GTM", backend=backend, **kwargs).fit(dataset)
        assert result.backend == "sparse"
        assert ("degraded to inline sparse execution"
                in result.backend_reason)
        assert "GTM" in result.backend_reason

    @pytest.mark.parametrize("backend,kwargs", PARALLEL_BACKENDS)
    def test_fact_graph_traces_reason(self, backend, kwargs):
        from repro.baselines import resolver_by_name

        dataset = _fuzz_dataset(92, k=5, n=20)
        result = resolver_by_name(
            "TruthFinder", backend=backend, **kwargs).fit(dataset)
        assert result.backend == "sparse"
        assert "fact-graph" in result.backend_reason
