"""Dense vs sparse vs process vs mmap backends: memory, time, scaling.

Two acceptance benchmarks run here, on the same 5%-density synthetic
workload (K=50 sources, N=100k objects, 3 continuous properties):

* **memory** (PR 2): the sparse backend's peak memory must be at least
  5x lower than the dense backend's, and at most
  :data:`CLAIM_BYTES_BAR` times the claims matrix's own array bytes;
* **parallel speedup** (PR 4): the process backend at 4 workers must be
  at least 1.7x faster than single-process sparse — asserted only when
  the machine actually has 4+ usable CPUs (measurements always print).

All backends must produce bit-identical results.

Runs two ways:

* under pytest-benchmark with the rest of the suite
  (``pytest benchmarks/bench_backend_scaling.py``), or
* as a plain script for CI smoke checks::

      REPRO_BENCH_SMOKE=1 python benchmarks/bench_backend_scaling.py \
          --backend process --workers 2

``REPRO_BENCH_SMOKE=1`` shrinks the object count (100k -> 5k) so the
script finishes in seconds; the >= 5x and >= 1.7x assertions only apply
at full scale, where fixed overheads stop dominating.
"""

import argparse
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.solver import crh
from repro.data import DatasetSchema, claims_from_arrays, continuous
from repro.data.io import load_dataset, save_dataset
from repro.engine import available_workers

N_SOURCES = 50
DENSITY = 0.05
ITERATIONS = 8
#: process-backend worker counts measured by the comparison
WORKER_POINTS = (1, 2, 4)
SPEEDUP_BAR = 1.7
#: sparse peak memory bound, as a multiple of the claim arrays' bytes
CLAIM_BYTES_BAR = 2.5


def _smoke() -> bool:
    """True when CI asked for the shrunken smoke-mode workload."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _n_objects() -> int:
    """Workload size: 100k objects at full scale, 5k in smoke mode."""
    return 5_000 if _smoke() else 100_000


def build_workload(seed: int = 0):
    """Synthesize the 5%-density claims matrix without dense allocation."""
    rng = np.random.default_rng(seed)
    k, n = N_SOURCES, _n_objects()
    schema = DatasetSchema.of(
        continuous("p0"), continuous("p1"), continuous("p2")
    )
    target = int(k * n * DENSITY)
    columns = {}
    for m, name in enumerate(schema.names()):
        cells = np.unique(
            rng.integers(0, k * n, int(target * 1.2), dtype=np.int64)
        )[:target]
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


def measure(dataset, backend: str, n_workers: int | None = None):
    """Run CRH on ``backend``; return (result, peak_bytes, seconds).

    Peak memory is the parent process's tracemalloc peak; for the
    process backend the shared segment lives outside the Python heap,
    so only the dense/sparse peaks are comparable.
    """
    tracemalloc.start()
    started = time.perf_counter()
    try:
        result = crh(dataset, backend=backend, n_workers=n_workers,
                     max_iterations=ITERATIONS)
        seconds = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, seconds


def render_row(label: str, peak: int, seconds: float) -> str:
    """One aligned table line for the comparison printout."""
    return f"  {label:<12} {peak / 2**20:>10.1f} MiB {seconds:>8.2f} s"


def _assert_identical(reference, other) -> None:
    for col_a, col_b in zip(reference.truths.columns, other.truths.columns):
        np.testing.assert_array_equal(col_a, col_b)
    np.testing.assert_array_equal(reference.weights, other.weights)


def run_comparison() -> dict:
    """Measure every backend, print the table, enforce the acceptance bars."""
    dataset = build_workload()
    claim_bytes = dataset.nbytes()
    cpus = available_workers()
    print(f"\nBackend scaling: K={N_SOURCES}, N={_n_objects():,}, "
          f"density={DENSITY:.0%}, {dataset.n_claims():,} claims, "
          f"{cpus} usable CPU(s){' [smoke]' if _smoke() else ''}")
    measurements = {}
    for backend in ("sparse", "dense"):
        result, peak, seconds = measure(dataset, backend)
        measurements[backend] = (result, peak, seconds)
        print(render_row(backend, peak, seconds))
    for workers in WORKER_POINTS:
        label = f"process-w{workers}"
        result, peak, seconds = measure(dataset, "process",
                                        n_workers=workers)
        measurements[label] = (result, peak, seconds)
        print(render_row(label, peak, seconds))
    sparse_result, sparse_peak, sparse_seconds = measurements["sparse"]
    dense_result, dense_peak, _ = measurements["dense"]
    ratio = dense_peak / sparse_peak
    print(f"  dense/sparse peak-memory ratio: {ratio:.1f}x")
    print(f"  sparse peak / claim bytes: {sparse_peak / claim_bytes:.2f}x")
    _assert_identical(sparse_result, dense_result)
    speedups = {}
    for workers in WORKER_POINTS:
        result, _, seconds = measurements[f"process-w{workers}"]
        _assert_identical(sparse_result, result)
        speedups[workers] = sparse_seconds / seconds
        print(f"  process-w{workers} speedup over sparse: "
              f"{speedups[workers]:.2f}x")
    if not _smoke():
        assert ratio >= 5.0, (
            f"sparse backend saved only {ratio:.1f}x peak memory "
            f"(dense {dense_peak / 2**20:.1f} MiB, sparse "
            f"{sparse_peak / 2**20:.1f} MiB); acceptance bar is 5x"
        )
        assert sparse_peak <= CLAIM_BYTES_BAR * claim_bytes, (
            f"sparse peak {sparse_peak / 2**20:.1f} MiB is "
            f"{sparse_peak / claim_bytes:.2f}x the claim arrays' "
            f"{claim_bytes / 2**20:.1f} MiB; bar is {CLAIM_BYTES_BAR}x"
        )
    if not _smoke() and cpus >= 4:
        assert speedups[4] >= SPEEDUP_BAR, (
            f"process backend at 4 workers only {speedups[4]:.2f}x over "
            f"sparse; acceptance bar is {SPEEDUP_BAR}x"
        )
    elif cpus < 4:
        print(f"  (speedup bar >= {SPEEDUP_BAR}x at 4 workers not "
              f"asserted: only {cpus} usable CPU(s))")
    return {"ratio": ratio, "dense_peak": dense_peak,
            "sparse_peak": sparse_peak, "speedups": speedups}


def run_single(backend: str, n_workers: int | None = None) -> None:
    """CI smoke entry: one backend end to end, no comparison."""
    if backend == "mmap":
        run_mmap()
        return
    dataset = build_workload()
    result, peak, seconds = measure(dataset, backend, n_workers=n_workers)
    label = backend if n_workers is None else f"{backend}-w{n_workers}"
    print(f"Backend smoke: K={N_SOURCES}, N={_n_objects():,}, "
          f"density={DENSITY:.0%}{' [smoke]' if _smoke() else ''}")
    print(render_row(label, peak, seconds))
    assert len(result.objective_history) >= 1
    assert np.all(np.isfinite(result.weights))


def run_mmap() -> None:
    """Out-of-core smoke: save to disk, reload memmapped, match sparse.

    Exercises the full out-of-core path — ``save_dataset`` (uncompressed
    npz), ``load_dataset(mmap=True)`` opening the members as memmaps,
    and the chunked mmap backend — and asserts the results are
    bit-identical to inline sparse execution on the same workload.
    """
    dataset = build_workload()
    sparse_result, _, sparse_seconds = measure(dataset, "sparse")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        save_dataset(dataset, directory)
        mapped = load_dataset(directory, mmap=True)
        assert mapped.mmap_fallback_reason is None, \
            mapped.mmap_fallback_reason
        result, peak, seconds = measure(mapped, "mmap")
    print(f"Backend smoke: K={N_SOURCES}, N={_n_objects():,}, "
          f"density={DENSITY:.0%}{' [smoke]' if _smoke() else ''}")
    print(render_row("sparse", 0, sparse_seconds))
    print(render_row("mmap", peak, seconds))
    _assert_identical(sparse_result, result)
    print("  mmap results bit-identical to sparse")


def test_backend_memory_scaling(benchmark):
    """pytest-benchmark entry: full comparison with the acceptance bars."""
    summary = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert summary["sparse_peak"] < summary["dense_peak"]


def main() -> None:
    """Script entry: ``--backend {dense,sparse,process,mmap,both}``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend", choices=("dense", "sparse", "process", "mmap", "both"),
        default="both")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-backend worker count (single-backend runs only)")
    args = parser.parse_args()
    if args.backend == "both":
        run_comparison()
    else:
        run_single(args.backend, n_workers=args.workers)


if __name__ == "__main__":
    main()
