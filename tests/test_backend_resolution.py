"""make_backend resolution: names, conversion notes, auto upgrade.

The ``resolution`` string a backend carries is an API surface — it lands
in every ``run_start`` trace as ``backend_reason`` — so these tests pin
the exact strings across all three resolution branches (explicit
request, session default, footprint recommendation), for dataset inputs
and already-built backend inputs alike.  The rule: whenever the built
backend stores claims differently than the input did, the reason ends
with ``" (converted from {dense|sparse})"``.  ``"auto"`` never builds
dense storage: it solves on sparse claims in RAM, upgrades large
median-heavy claim sets to ``process`` and escalates past the memory
cap to ``mmap``.
"""

import numpy as np
import pytest

from repro.data import (
    ClaimsMatrix,
    DatasetBuilder,
    DatasetSchema,
    categorical,
    claims_from_arrays,
    continuous,
)
from repro.engine import (
    DenseBackend,
    ProcessBackend,
    SparseBackend,
    make_backend,
    set_memory_cap,
    use_default_backend,
    use_memory_cap,
)
from repro.engine import process as process_mod


@pytest.fixture
def dense_dataset(tiny_dataset):
    return tiny_dataset


@pytest.fixture
def sparse_dataset(tiny_dataset):
    return ClaimsMatrix.from_dense(tiny_dataset)


class TestExplicitRequests:
    def test_no_conversion_keeps_plain_reason(self, dense_dataset,
                                              sparse_dataset):
        assert make_backend(dense_dataset, "dense").resolution == \
            "explicit 'dense' request"
        assert make_backend(sparse_dataset, "sparse").resolution == \
            "explicit 'sparse' request"

    def test_dataset_conversions_are_noted(self, dense_dataset,
                                           sparse_dataset):
        assert make_backend(dense_dataset, "sparse").resolution == \
            "explicit 'sparse' request (converted from dense)"
        assert make_backend(sparse_dataset, "dense").resolution == \
            "explicit 'dense' request (converted from sparse)"
        assert make_backend(dense_dataset, "process").resolution == \
            "explicit 'process' request (converted from dense)"

    def test_process_keeps_sparse_storage(self, sparse_dataset):
        # ClaimsMatrix -> ProcessBackend changes no representation, so
        # no conversion note appears.
        built = make_backend(sparse_dataset, "process")
        assert built.resolution == "explicit 'process' request"
        assert built.data is sparse_dataset

    def test_mmap_keeps_sparse_storage(self, sparse_dataset):
        # The mmap backend also runs on CSR claim storage: sparse input
        # needs no conversion, dense input notes one.
        built = make_backend(sparse_dataset, "mmap")
        assert built.resolution == "explicit 'mmap' request"
        assert built.data is sparse_dataset

    def test_mmap_from_dense_notes_conversion(self, dense_dataset):
        built = make_backend(dense_dataset, "mmap")
        assert built.resolution == \
            "explicit 'mmap' request (converted from dense)"


class TestBuiltBackendInputs:
    def test_passthrough_on_agreement(self, sparse_dataset):
        backend = SparseBackend(sparse_dataset)
        assert make_backend(backend, "auto") is backend
        assert make_backend(backend, "sparse") is backend

    def test_disagreeing_selector_notes_conversion(self, dense_dataset,
                                                   sparse_dataset):
        # The satellite fix: built-backend inputs emit the same
        # conversion note as the dataset path.
        dense = DenseBackend(dense_dataset)
        assert make_backend(dense, "sparse").resolution == \
            "explicit 'sparse' request (converted from dense)"
        assert make_backend(dense, "process").resolution == \
            "explicit 'process' request (converted from dense)"
        sparse = SparseBackend(sparse_dataset)
        assert make_backend(sparse, "dense").resolution == \
            "explicit 'dense' request (converted from sparse)"

    def test_process_to_sparse_has_no_note(self, sparse_dataset):
        # Both store sparse claims; only the execution strategy changes.
        backend = ProcessBackend(sparse_dataset, n_workers=1)
        built = make_backend(backend, "sparse")
        assert built.resolution == "explicit 'sparse' request"
        assert built.data is sparse_dataset
        backend.close()


class TestSessionDefault:
    def test_session_default_notes_conversion(self, sparse_dataset):
        with use_default_backend("dense"):
            built = make_backend(sparse_dataset, "auto")
        assert built.resolution == \
            "session default (dense) (converted from sparse)"

    def test_session_default_without_conversion(self, sparse_dataset):
        with use_default_backend("sparse"):
            built = make_backend(sparse_dataset, "auto")
        assert built.resolution == "session default (sparse)"


def _large_sparse_claims(n_claims=400):
    # ~10% claim density, so the footprint recommendation is sparse.
    schema = DatasetSchema.of(continuous("x"))
    rng = np.random.default_rng(0)
    k, n = 4, n_claims * 5 // 2
    cells = np.unique(rng.integers(0, k * n, n_claims * 2))[:n_claims]
    return claims_from_arrays(
        schema,
        source_ids=[f"s{i}" for i in range(k)],
        object_ids=np.arange(n),
        columns={"x": (rng.normal(0, 1, len(cells)),
                       (cells // n).astype(np.int32),
                       (cells % n).astype(np.int32))},
    )


def _mixed_claims(n_continuous, n_categorical, n_objects=40):
    # Every source claims every object of every property.
    schema = DatasetSchema.of(
        *(continuous(f"x{i}") for i in range(n_continuous)),
        *(categorical(f"c{i}", ["a", "b"]) for i in range(n_categorical)),
    )
    builder = DatasetBuilder(schema)
    rng = np.random.default_rng(1)
    for obj in range(n_objects):
        for source in ("s0", "s1", "s2"):
            row = {f"x{i}": float(rng.normal())
                   for i in range(n_continuous)}
            row.update({f"c{i}": str(rng.choice(["a", "b"]))
                        for i in range(n_categorical)})
            builder.add_row(obj, source, row)
    return ClaimsMatrix.from_dense(builder.build())


class TestAutoPolicy:
    def test_near_dense_claims_stay_sparse(self, sparse_dataset):
        # The dense projection is smaller, yet auto keeps the claims
        # matrix as it is: no dense storage, no conversion note.
        assert sparse_dataset.dense_nbytes() < sparse_dataset.nbytes()
        built = make_backend(sparse_dataset, "auto")
        assert built.name == "sparse"
        assert built.data is sparse_dataset
        assert "converted" not in built.resolution

    def test_dense_input_converts_to_sparse(self, dense_dataset):
        built = make_backend(dense_dataset, "auto")
        assert built.name == "sparse"
        assert isinstance(built.data, ClaimsMatrix)
        assert built.resolution.startswith("footprint recommendation:")
        assert built.resolution.endswith("(converted from dense)")

    def test_reason_reports_both_projections(self, sparse_dataset):
        reason = make_backend(sparse_dataset, "auto").resolution
        assert "sparse 804 B (dense projection 300 B)" in reason


class TestAutoUpgrade:
    def test_footprint_reason_survives(self, sparse_dataset):
        built = make_backend(sparse_dataset, "auto")
        assert built.resolution.startswith("footprint recommendation:")

    def test_upgrades_to_process_above_threshold(self, monkeypatch):
        claims = _large_sparse_claims()
        monkeypatch.setattr(process_mod, "available_workers", lambda: 4)
        monkeypatch.setattr(process_mod, "PROCESS_AUTO_CLAIM_THRESHOLD",
                            claims.n_observations())
        built = make_backend(claims, "auto", n_workers=2)
        try:
            assert built.name == "process"
            assert built.n_workers == 2
            assert built.resolution.startswith("footprint recommendation:")
            assert "-> process" in built.resolution
        finally:
            built.close()

    def test_no_upgrade_on_single_cpu(self, monkeypatch):
        claims = _large_sparse_claims()
        monkeypatch.setattr(process_mod, "available_workers", lambda: 1)
        monkeypatch.setattr(process_mod, "PROCESS_AUTO_CLAIM_THRESHOLD", 1)
        built = make_backend(claims, "auto")
        assert built.name == "sparse"
        assert built.resolution.endswith("; 1 CPU usable -> sparse")

    def test_no_upgrade_below_threshold(self, monkeypatch):
        claims = _large_sparse_claims()
        monkeypatch.setattr(process_mod, "available_workers", lambda: 8)
        monkeypatch.setattr(process_mod, "PROCESS_AUTO_CLAIM_THRESHOLD",
                            claims.n_observations() + 1)
        built = make_backend(claims, "auto")
        assert built.name == "sparse"
        assert built.resolution.endswith(
            f"; {claims.n_observations()} claims < "
            f"{claims.n_observations() + 1} -> sparse")

    def test_no_upgrade_for_categorical_majority(self, monkeypatch):
        # One continuous property of three: share 1/3 < 0.5, so the
        # claim set stays sparse even with the count and CPUs to spare.
        claims = _mixed_claims(n_continuous=1, n_categorical=2)
        monkeypatch.setattr(process_mod, "available_workers", lambda: 4)
        monkeypatch.setattr(process_mod, "PROCESS_AUTO_CLAIM_THRESHOLD",
                            claims.n_observations())
        built = make_backend(claims, "auto")
        assert built.name == "sparse"
        assert built.resolution.endswith(
            "; continuous share 0.33 < 0.50 -> sparse")

    def test_upgrades_continuous_majority(self, monkeypatch):
        claims = _mixed_claims(n_continuous=2, n_categorical=1)
        monkeypatch.setattr(process_mod, "available_workers", lambda: 4)
        monkeypatch.setattr(process_mod, "PROCESS_AUTO_CLAIM_THRESHOLD",
                            claims.n_observations())
        built = make_backend(claims, "auto", n_workers=2)
        try:
            assert built.name == "process"
            assert built.resolution.endswith(
                f"; {claims.n_observations()} claims >= "
                f"{claims.n_observations()} with 4 CPUs usable and "
                f"continuous share 0.67 >= 0.50 -> process")
        finally:
            built.close()


class TestMemoryCapEscalation:
    def test_tiny_cap_escalates_auto_to_mmap(self, sparse_dataset):
        with use_memory_cap(1):
            built = make_backend(sparse_dataset, "auto")
        assert built.name == "mmap"
        assert built.resolution.startswith("footprint recommendation:")
        assert "memory cap -> mmap" in built.resolution

    def test_sparse_projection_alone_decides(self, sparse_dataset):
        # A cap between the two projections (dense 300 B < cap < sparse
        # 804 B) escalates: the smaller dense projection does not count.
        with use_memory_cap(500):
            built = make_backend(sparse_dataset, "auto")
        assert built.name == "mmap"
        assert built.resolution.endswith(
            "; sparse exceeds the 500 B memory cap -> mmap")

    def test_huge_cap_never_escalates(self, sparse_dataset):
        with use_memory_cap(2**40):
            built = make_backend(sparse_dataset, "auto")
        assert built.name == "sparse"
        assert "mmap" not in built.resolution

    def test_cap_escalation_beats_process_upgrade(self, monkeypatch):
        # Above the cap, out-of-core wins over the worker-pool upgrade
        # even when the claim count clears the process threshold.
        claims = _large_sparse_claims()
        monkeypatch.setattr(process_mod, "available_workers", lambda: 4)
        monkeypatch.setattr(process_mod, "PROCESS_AUTO_CLAIM_THRESHOLD", 1)
        with use_memory_cap(1):
            built = make_backend(claims, "auto")
        assert built.name == "mmap"
        assert "memory cap -> mmap" in built.resolution

    def test_set_memory_cap_validates(self):
        with pytest.raises(ValueError, match=">= 1"):
            set_memory_cap(0)


class TestWorkerDefaults:
    def test_set_default_workers_validates(self):
        with pytest.raises(ValueError, match=">= 1"):
            process_mod.set_default_workers(0)

    def test_default_workers_flow_into_backend(self, sparse_dataset):
        process_mod.set_default_workers(3)
        try:
            backend = ProcessBackend(sparse_dataset)
            assert backend.n_workers == 3
            backend.close()
        finally:
            process_mod.set_default_workers(None)

    def test_explicit_n_workers_wins(self, sparse_dataset):
        backend = ProcessBackend(sparse_dataset, n_workers=2)
        assert backend.n_workers == 2
        backend.close()
