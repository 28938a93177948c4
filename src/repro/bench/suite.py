"""The pinned benchmark suite: what ``python -m repro bench`` measures.

Each :class:`BenchCase` separates *building* its workload (unmeasured —
dataset synthesis must not pollute the timings) from *running* it (timed
under an active :class:`~repro.observability.MemoryProfiler`, so phase
spans and kernel counters land in the BENCH snapshot).  Cases accept a
``scale`` multiplier so CI can run a reduced grid of the same suite and
still compare like against like — BENCH files record the scale and
:func:`repro.bench.compare.compare_benches` refuses to diff mismatched
scales.

The pinned cases:

* ``core/median`` / ``core/vote`` / ``core/deviations`` — the Eq. 16
  median, the Eq. 9 vote and the Eq. 13 deviation pass on a flat
  synthetic claim array, shaped exactly like one solver iteration runs
  them (cached :class:`~repro.core.kernels.MedianSortPlan`, precomputed
  effective weights, preallocated deviation scratch), so the hot-path
  kernels are timed in isolation from the solver loop;
* ``backend/dense`` / ``backend/sparse`` — full CRH on a 5%-density
  claims workload under each execution backend (the
  memory-vs-layout trade the profile recommends between);
* ``backend/process-w{1,2,4}`` — the same workload on the
  shared-memory worker pool at 1/2/4 workers (the PR-4 scaling
  points; pool start-up and segment packing are inside the timing);
* ``backend/mmap`` — the same workload saved to disk, reloaded as
  memory-mapped claims, and run out-of-core chunk-at-a-time (chunk
  reads are inside the timing, in the ``truth_step/io`` span);
* ``fig7/scaling_point`` — one parallel-CRH point of the Fig. 7 grid
  (Adult-shaped workload, simulated cluster);
* ``streaming/icrh_chunks`` — I-CRH over a chunked weather stream;
* ``serving/ingest_read`` — the same stream pushed claim batches at a
  time through :class:`~repro.streaming.TruthService` (window sealing,
  dirty-set recompute) followed by a full-corpus truth read;
* ``baseline/median-sparse`` / ``baseline/catd-process-w2`` /
  ``baseline/truthfinder-sparse`` — baseline resolvers through the
  unified execution layer (``docs/RESOLVERS.md``): a uniform-weight
  kernel truth step, CATD's runner-native iteration on the worker
  pool, and a fact-graph method on CSR claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import kernels
from ..core.solver import crh
from ..data import DatasetSchema, claims_from_arrays, continuous
from ..datasets import WeatherConfig, generate_weather_dataset
from ..experiments.scaling import _adult_workload
from ..observability.profiling import MemoryProfiler, activate
from ..parallel import ParallelCRHConfig, parallel_crh
from ..streaming import TruthService, icrh, iter_dataset_claims


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark: a workload builder plus a measured body.

    ``build(scale, seed)`` synthesizes the workload (not timed);
    ``run(payload, profiler)`` does the measured work with ``profiler``
    installed, so its phase spans and kernel counters describe exactly
    this case.
    """

    name: str
    description: str
    build: Callable[[float, int], object]
    run: Callable[[object, MemoryProfiler], object]


# -- solver-shaped kernel microbenches ---------------------------------

_CORE_REPEATS = 5
_CORE_SOURCES = 50


def _core_payload(scale: float, seed: int):
    """Solver-shaped kernel inputs over flat sorted claim arrays.

    Values/codes, weights and CSR starts, plus what one solver
    iteration would have on hand: the claim grouping, a cached
    :class:`~repro.core.kernels.MedianSortPlan` (built once per view
    lifetime, not per iteration), per-claim source positions, and
    per-entry stds/truths for the deviation pass.
    """
    rng = np.random.default_rng(seed)
    n_claims = max(1_000, int(200_000 * scale))
    n_groups = max(100, int(20_000 * scale))
    groups = np.sort(rng.integers(0, n_groups, n_claims))
    payload = {
        "starts": np.searchsorted(groups, np.arange(n_groups + 1)),
        "values": rng.normal(0.0, 1.0, n_claims),
        "codes": rng.integers(0, 8, n_claims).astype(np.int64),
        "weights": rng.uniform(0.1, 1.0, n_claims),
    }
    rng = np.random.default_rng(seed + 1)
    sizes = np.diff(payload["starts"])
    group = np.repeat(np.arange(sizes.shape[0]), sizes)
    payload.update(
        group=group,
        source_idx=rng.integers(
            0, _CORE_SOURCES, n_claims).astype(np.int32),
        stds=rng.uniform(0.5, 2.0, sizes.shape[0]),
        truths=rng.normal(0.0, 1.0, sizes.shape[0]),
        plan=kernels.MedianSortPlan(payload["values"], group,
                                    payload["starts"]),
    )
    return payload


def _run_core_median(payload, profiler: MemoryProfiler):
    """Eq. 16 median as the fused sweep runs it: cached plan, effective
    weights computed once per iteration."""
    with activate(profiler), profiler.phase("run"):
        for _ in range(_CORE_REPEATS):
            effective = kernels.effective_claim_weights(
                payload["weights"], payload["starts"], payload["group"])
            out = kernels.segment_weighted_median(
                payload["values"], payload["weights"], payload["starts"],
                group_of_claim=payload["group"], plan=payload["plan"],
                effective=effective,
            )
    return out


def _run_core_vote(payload, profiler: MemoryProfiler):
    """Eq. 9 vote as the fused sweep runs it: precomputed effective
    weights shared with the rest of the iteration."""
    with activate(profiler), profiler.phase("run"):
        for _ in range(_CORE_REPEATS):
            effective = kernels.effective_claim_weights(
                payload["weights"], payload["starts"], payload["group"])
            out = kernels.segment_weighted_vote(
                payload["codes"], payload["weights"], payload["starts"],
                n_categories=8, group_of_claim=payload["group"],
                effective=effective,
            )
    return out


def _run_core_deviations(payload, profiler: MemoryProfiler):
    """The weight step's deviation pass with the sweep's preallocated
    scratch: per-claim deviations into a reused buffer, per-source
    accumulation into a reused ``(totals, counts)`` pair."""
    scratch = np.empty(payload["values"].shape[0], dtype=np.float64)
    pair = (np.zeros(_CORE_SOURCES), np.zeros(_CORE_SOURCES))
    with activate(profiler), profiler.phase("run"):
        for _ in range(_CORE_REPEATS):
            kernels.squared_claim_deviations(
                payload["values"], payload["truths"], payload["stds"],
                payload["group"], out=scratch,
            )
            totals, _counts = kernels.accumulate_source_deviations(
                scratch, payload["source_idx"], _CORE_SOURCES, out=pair,
            )
    return totals


# -- dense vs sparse backends ------------------------------------------

_BACKEND_SOURCES = 20
_BACKEND_DENSITY = 0.05


def _backend_payload(scale: float, seed: int):
    """A 5%-density claims matrix built without dense materialization."""
    rng = np.random.default_rng(seed)
    k = _BACKEND_SOURCES
    n = max(500, int(20_000 * scale))
    schema = DatasetSchema.of(continuous("p0"), continuous("p1"))
    target = int(k * n * _BACKEND_DENSITY)
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


def _run_backend(backend: str):
    """A measured body running CRH pinned to one execution backend."""
    def run(payload, profiler: MemoryProfiler):
        return crh(payload, backend=backend, max_iterations=5,
                   profiler=profiler)
    return run


def _mmap_payload(scale: float, seed: int):
    """The backend workload saved to disk and reloaded as memmaps.

    The save/load round trip happens in ``build`` (not timed); the
    returned matrix keeps its temporary directory alive for the
    duration of the case, so the measured body streams real disk-backed
    chunks.
    """
    import tempfile
    from pathlib import Path

    from ..data.io import load_dataset, save_dataset

    dataset = _backend_payload(scale, seed)
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-mmap-")
    save_dataset(dataset, Path(tmpdir.name))
    mapped = load_dataset(Path(tmpdir.name), mmap=True)
    assert mapped.mmap_fallback_reason is None, mapped.mmap_fallback_reason
    mapped._bench_tmpdir = tmpdir  # cleaned up when the payload dies
    return mapped


def _run_mmap_backend(payload, profiler: MemoryProfiler):
    """A measured body running CRH out-of-core on memmapped claims.

    ``chunk_claims`` is pinned small enough that even the reduced CI
    grid sweeps several chunks per truth step.
    """
    return crh(payload, backend="mmap", chunk_claims=4_096,
               max_iterations=5, profiler=profiler)


def _run_process_backend(n_workers: int):
    """A measured body running CRH on the shared-memory worker pool.

    The backend is built inside the measured body on purpose: segment
    packing and pool start-up are part of what the process backend
    costs, so hiding them in ``build`` would flatter the scaling curve.
    """
    def run(payload, profiler: MemoryProfiler):
        return crh(payload, backend="process", n_workers=n_workers,
                   max_iterations=5, profiler=profiler)
    return run


# -- baseline resolvers -------------------------------------------------

def _run_resolver(name: str, backend: str, **backend_kwargs):
    """A measured body fitting one baseline resolver on one backend.

    Kernel attribution is process-global while a profiler is active, so
    the resolver's segment-kernel calls land in the snapshot's kernel
    counters; the whole fit is wrapped in one ``run`` phase.
    """
    def run(payload, profiler: MemoryProfiler):
        from ..baselines import resolver_by_name

        resolver = resolver_by_name(name, backend=backend,
                                    **backend_kwargs)
        with activate(profiler), profiler.phase("run"):
            return resolver.fit(payload)
    return run


# -- fig7 scaling point -------------------------------------------------

def _fig7_payload(scale: float, seed: int):
    """One Adult-shaped Fig. 7 workload (8 sources)."""
    n_observations = max(5_000, int(120_000 * scale))
    return _adult_workload(n_observations, n_sources=8, seed=seed)


def _run_fig7(payload, profiler: MemoryProfiler):
    """Parallel CRH on the simulated cluster, a fixed 3 iterations."""
    config = ParallelCRHConfig(n_mappers=4, n_reducers=10,
                               max_iterations=3, tol=0.0)
    return parallel_crh(payload, config, profiler=profiler)


# -- streaming ----------------------------------------------------------

def _stream_payload(scale: float, seed: int):
    """A timestamped weather stream for window-chunked I-CRH."""
    config = WeatherConfig(
        n_cities=max(4, int(12 * scale)),
        n_days=max(6, int(24 * scale)),
        seed=seed,
    )
    return generate_weather_dataset(config).dataset


def _run_icrh(payload, profiler: MemoryProfiler):
    """I-CRH over the stream, two days per chunk."""
    return icrh(payload, window=2, profiler=profiler)


# -- serving ------------------------------------------------------------

_SERVING_BATCH = 512


def _serving_payload(scale: float, seed: int):
    """The weather stream flattened to ingestion-ordered claims."""
    dataset = _stream_payload(scale, seed)
    return {
        "schema": dataset.schema,
        "codecs": dataset.codecs(),
        "claims": list(iter_dataset_claims(dataset)),
        "object_ids": list(dataset.object_ids),
    }


def _run_serving(payload, profiler: MemoryProfiler):
    """Ingest the stream through TruthService, then read every object.

    Batched ingest seals windows as they complete (the service's
    ``ingest``/``recompute`` spans), the flush drains the tail, and a
    full-corpus read exercises the warm truth cache (``read`` span).
    """
    service = TruthService(payload["schema"], window=2,
                           codecs=payload["codecs"], profiler=profiler)
    claims = payload["claims"]
    with activate(profiler), profiler.phase("run"):
        for start in range(0, len(claims), _SERVING_BATCH):
            service.ingest(claims[start:start + _SERVING_BATCH])
        service.flush()
        return service.get_truth(payload["object_ids"])


def _run_serving_metrics_overhead(payload, profiler: MemoryProfiler):
    """Ingest the stream twice: metrics registry enabled, then disabled.

    The two passes run under sibling phases (``run/metrics_on`` /
    ``run/metrics_off``), so one BENCH snapshot carries both timings
    side by side — the registry's serving-path overhead is their ratio
    (``benchmarks/bench_serving.py`` asserts the <5% bar at full
    scale).
    """
    from ..observability.metrics import MetricsRegistry

    claims = payload["claims"]
    sealed = {}
    with activate(profiler), profiler.phase("run"):
        for label, registry in (
                ("metrics_on", MetricsRegistry()),
                ("metrics_off", MetricsRegistry(enabled=False))):
            service = TruthService(payload["schema"], window=2,
                                   codecs=payload["codecs"],
                                   metrics=registry)
            with profiler.phase(label):
                for start in range(0, len(claims), _SERVING_BATCH):
                    service.ingest(claims[start:start + _SERVING_BATCH])
                service.flush()
            sealed[label] = service.metrics()["windows_sealed"]
    return sealed


# -- the pinned suite ---------------------------------------------------

#: every case ``python -m repro bench`` measures, in execution order
SUITE: tuple[BenchCase, ...] = (
    BenchCase(
        name="core/median",
        description="Eq. 16 median, solver-shaped (cached sort plan + "
                    "effective weights)",
        build=_core_payload,
        run=_run_core_median,
    ),
    BenchCase(
        name="core/vote",
        description="Eq. 9 vote, solver-shaped (precomputed effective "
                    "weights)",
        build=_core_payload,
        run=_run_core_vote,
    ),
    BenchCase(
        name="core/deviations",
        description="Eq. 13 deviations + per-source accumulation with "
                    "preallocated scratch",
        build=_core_payload,
        run=_run_core_deviations,
    ),
    BenchCase(
        name="backend/dense",
        description="CRH on the dense (K, N) backend, 5% density",
        build=_backend_payload,
        run=_run_backend("dense"),
    ),
    BenchCase(
        name="backend/sparse",
        description="CRH on the sparse CSR backend, 5% density",
        build=_backend_payload,
        run=_run_backend("sparse"),
    ),
    BenchCase(
        name="backend/process-w1",
        description="CRH on the process backend, 1 worker, 5% density",
        build=_backend_payload,
        run=_run_process_backend(1),
    ),
    BenchCase(
        name="backend/process-w2",
        description="CRH on the process backend, 2 workers, 5% density",
        build=_backend_payload,
        run=_run_process_backend(2),
    ),
    BenchCase(
        name="backend/process-w4",
        description="CRH on the process backend, 4 workers, 5% density",
        build=_backend_payload,
        run=_run_process_backend(4),
    ),
    BenchCase(
        name="backend/mmap",
        description="CRH out-of-core on memmapped claims, 5% density",
        build=_mmap_payload,
        run=_run_mmap_backend,
    ),
    BenchCase(
        name="fig7/scaling_point",
        description="one parallel-CRH Fig. 7 point (simulated cluster)",
        build=_fig7_payload,
        run=_run_fig7,
    ),
    BenchCase(
        name="streaming/icrh_chunks",
        description="I-CRH over a window-chunked weather stream",
        build=_stream_payload,
        run=_run_icrh,
    ),
    BenchCase(
        name="serving/ingest_read",
        description="TruthService batched ingest + full-corpus read "
                    "over the weather stream",
        build=_serving_payload,
        run=_run_serving,
    ),
    BenchCase(
        name="serving/metrics_overhead",
        description="TruthService ingest with the metrics registry "
                    "enabled vs disabled",
        build=_serving_payload,
        run=_run_serving_metrics_overhead,
    ),
    BenchCase(
        name="baseline/median-sparse",
        description="Median resolver (uniform-weight kernel truth "
                    "step) on CSR claims",
        build=_backend_payload,
        run=_run_resolver("Median", "sparse"),
    ),
    BenchCase(
        name="baseline/catd-process-w2",
        description="CATD on the shared-memory worker pool, 2 workers",
        build=_backend_payload,
        run=_run_resolver("CATD", "process", n_workers=2),
    ),
    BenchCase(
        name="baseline/truthfinder-sparse",
        description="TruthFinder's fact-graph iteration on CSR claims",
        build=_backend_payload,
        run=_run_resolver("TruthFinder", "sparse"),
    ),
)


def cases_by_name(names) -> list[BenchCase]:
    """Resolve case names (exact or prefix, e.g. ``backend/``) to cases.

    Raises ``ValueError`` on a name matching nothing, listing the valid
    case names.
    """
    selected: list[BenchCase] = []
    for name in names:
        matches = [case for case in SUITE
                   if case.name == name or case.name.startswith(name)]
        if not matches:
            known = ", ".join(case.name for case in SUITE)
            raise ValueError(f"unknown bench case {name!r}; known: {known}")
        for case in matches:
            if case not in selected:
                selected.append(case)
    return selected
