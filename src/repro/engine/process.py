"""Shared-memory multiprocessing backend: CRH ranges on a worker pool.

:class:`ProcessBackend` runs the range-partitioned truth/deviation core
of :mod:`repro.engine.sharded` on real processes, one object range per
worker:

* The canonical claim arrays (``values``, ``source_idx``,
  ``object_idx``, ``indptr``), the per-entry stds of Eqs. 13/15, the
  weighted-median sort order localized per range (for losses that
  declare ``uses_median_order``), the truth/distribution state
  buffers, the per-claim deviation scratch and the source weight
  vector all live in **one** :mod:`multiprocessing.shared_memory`
  segment.  Workers attach once at pool start and cache their
  localized ranges; per round only ``(mode, range)`` descriptors cross
  the process boundary, claim data is never pickled.
* The parent sorts each property at most once per claim set
  (:meth:`~repro.data.claims_matrix.ClaimView.median_order`, cached on
  its view and shared with the initializer) and writes range
  ``[c0, c1)``'s slice as ``order[c0:c1] - c0``, so no worker sorts.
* The parent reduces the weight step over the full-length deviation
  scratch, as every :class:`~repro.engine.sharded.ShardedRunner` does.

Lifetime rules: the shared segment and the persistent
:class:`~concurrent.futures.ProcessPoolExecutor` are created lazily on
the first solver run and live until :meth:`ProcessBackend.close` (also
invoked by a ``weakref.finalize`` when the runner is garbage
collected, so abandoned backends do not leak ``/dev/shm`` segments).
Any worker failure (a crashed process, a poisoned task, a broken pool)
surfaces as :class:`ProcessBackendError`; the solver catches it, tears
the pool down and finishes the run inline on sparse claims with the
reason recorded in the trace.  Losses outside
:data:`~repro.engine.sharded.RUNNER_LOSSES` degrade the same way.
"""

from __future__ import annotations

import os
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_all_start_methods, get_context, shared_memory

import numpy as np

from ..data.claims_matrix import ClaimView, order_dtype
from .backend import BackendExecutionError
from .sharded import (
    Lane,
    RangeProperty,
    RunnerBackend,
    ShardedRunner,
    run_range,
    truth_dtype,
)

#: claim count above which ``backend="auto"`` upgrades a sparse
#: footprint recommendation to the process backend (when >1 CPU is
#: usable and the claims are median-heavy, see below).  Measured on a
#: 2-vCPU host, all-continuous claims, absolute loss, 10 iterations,
#: 2 workers (median of 5 solves, process vs sparse): 0.096 vs 0.051 s
#: at 60k claims, 0.121 vs 0.118 s at 120k, 0.148 vs 0.154 s at 210k,
#: 0.447 vs 0.588 s at 600k.  The sparse kernels cost ~10 ms per 100k
#: claims per iteration, and below ~200k claims the pool's per-round
#: dispatch overhead eats the speedup.
PROCESS_AUTO_CLAIM_THRESHOLD = 200_000

#: least share of continuous claims at which ``backend="auto"`` makes
#: that upgrade.  The weighted median is where the pool pays most.
#: Measured on a 2-vCPU host (10 iterations, 2 workers, median of 5
#: solves, process vs sparse): 0.37-0.40 vs 0.43-0.52 s on 600k
#: all-continuous claims, but 0.52 vs 0.55-0.58 s on the 1.6M-claim
#: Adult mix (43% continuous), where the pool also more than doubles
#: the peak memory (267 vs 105 MiB).
PROCESS_AUTO_CONTINUOUS_SHARE = 0.5


class ProcessBackendError(BackendExecutionError):
    """A process-backend worker, pool or setup failure.

    The solver treats this as a degradation signal, not a fatal error:
    it closes the pool and continues the run inline on the sparse
    claim storage, recording the reason in the trace.
    """


def available_workers() -> int:
    """CPUs usable by this process (affinity-aware), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


_default_workers: int | None = None


def get_default_workers() -> int | None:
    """The session-wide worker count override, or ``None`` (cpu count)."""
    return _default_workers


def set_default_workers(n: int | None) -> None:
    """Set the worker count ``ProcessBackend`` uses when none is given.

    The CLI's ``--workers`` flag routes here so experiments pick it up
    without threading a parameter through every config.  ``None``
    restores the default (the usable CPU count).
    """
    global _default_workers
    if n is not None and n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    _default_workers = n


# ----------------------------------------------------------------------
# shared segment packing
# ----------------------------------------------------------------------

_ALIGN = 16


class _SegmentBuilder:
    """Pack named arrays into one shared-memory segment.

    ``add`` reserves an aligned slot (optionally copying an existing
    array's contents in later); ``allocate`` creates the segment and
    returns it plus the ``name -> (dtype, shape, offset)`` descriptor
    table workers use to carve their views.
    """

    def __init__(self) -> None:
        self._specs: dict[str, tuple[str, tuple[int, ...], int]] = {}
        self._size = 0

    def add(self, key: str, dtype, shape: tuple[int, ...]) -> str:
        if key in self._specs:
            raise ValueError(f"duplicate segment key {key!r}")
        dtype = np.dtype(dtype)
        offset = -(-self._size // _ALIGN) * _ALIGN
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        self._specs[key] = (dtype.str, tuple(int(s) for s in shape), offset)
        self._size = offset + nbytes
        return key

    def allocate(self) -> tuple[shared_memory.SharedMemory, dict]:
        segment = shared_memory.SharedMemory(
            create=True, size=max(self._size, 1)
        )
        return segment, dict(self._specs)


def _carve_views(buffer, descriptors: dict) -> dict[str, np.ndarray]:
    """Numpy views over a segment buffer, one per descriptor entry."""
    return {
        key: np.ndarray(shape, dtype=np.dtype(dtype_str),
                        buffer=buffer, offset=offset)
        for key, (dtype_str, shape, offset) in descriptors.items()
    }


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it.

    Workers must not register the parent's segment with the resource
    tracker: the tracker is shared across the process family, and a
    worker-side registration either double-unlinks the segment or spams
    KeyError noise when the parent unlinks it (bpo-38119).  Ownership
    stays with the parent; workers only map.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _segment_lanes(arrays: dict[str, np.ndarray], plan: dict,
                   losses) -> list[Lane]:
    """Resident lanes over the segment's views, one per property."""
    lanes = []
    for index, (spec, loss) in enumerate(zip(plan["properties"], losses)):
        prefix = f"p{index}/"
        own = {key[len(prefix):]: array for key, array in arrays.items()
               if key.startswith(prefix)}
        view = ClaimView(
            values=own["values"], source_idx=own["source_idx"],
            object_idx=own["object_idx"], indptr=own["indptr"],
            n_objects=spec["n_objects"], n_sources=plan["n_sources"],
        )
        lanes.append(Lane(
            RangeProperty(spec["schema"], spec["codec"], view),
            spec["bounds"], loss, std=own.get("std"),
            order=own.get("order"), truth=own["truth"],
            distribution=own.get("distribution"), dev=own["dev"],
            resident=True,
        ))
    return lanes


#: this worker's ``(segment, lanes, weights)``, set by :func:`_worker_init`
_WORKER: tuple | None = None


def _worker_init(segment_name: str, descriptors: dict,
                 plan: dict) -> None:
    """Pool initializer: attach the segment, build the worker's lanes.

    Spawn-compatible: everything needed arrives through the (one-time)
    initializer arguments, nothing through inherited globals.
    Tracemalloc state inherited by fork is switched off so worker hot
    paths stay unmeasured.
    """
    from ..core.losses import loss_by_name

    global _WORKER
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    segment = _attach_segment(segment_name)
    arrays = _carve_views(segment.buf, descriptors)
    losses = [loss_by_name(spec["loss"]) for spec in plan["properties"]]
    # The segment stays referenced for the worker's lifetime.
    _WORKER = (segment, _segment_lanes(arrays, plan, losses),
               arrays[plan["weights_key"]])


def _run_task(mode: str, r: int, failure: str | None) -> float:
    """One pool task: range ``r`` of every property (see
    :func:`repro.engine.sharded.run_range`); returns busy seconds."""
    assert _WORKER is not None, "worker used before initialization"
    _, lanes, weights = _WORKER
    return run_range(lanes, r, mode, weights, failure)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def _release(segment: shared_memory.SharedMemory | None) -> None:
    """Unlink the run's shared segment (finalizer-safe, idempotent)."""
    if segment is None:
        return
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - raced exit
        pass


class _ProcessRunner(ShardedRunner):
    """A warm worker pool plus the shared buffers of one loss config.

    All claim arrays are copied into the segment once at construction;
    each round moves only range ids and the weight vector.
    """

    error = ProcessBackendError
    injected = "injected worker failure (fail_after)"

    def __init__(self, data, losses, n_workers: int,
                 fail_after: int | None = None) -> None:
        super().__init__(data, losses, n_workers, fail_after)
        self.n_workers = n_workers
        self._segment: shared_memory.SharedMemory | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._busy = self._parallel_wall = 0.0

        builder = _SegmentBuilder()
        plan: dict = {"n_sources": data.n_sources, "properties": []}
        copies: list[tuple[str, np.ndarray]] = []
        for index, (prop, loss, bounds) in enumerate(
                zip(data.properties, losses, self._bounds)):
            view = prop.claim_view()
            n, c = view.n_objects, view.n_claims
            fields = [("values", view.values.dtype, (c,), view.values),
                      ("source_idx", np.int32, (c,), view.source_idx),
                      ("object_idx", np.int32, (c,), view.object_idx),
                      ("indptr", np.int64, (n + 1,), view.indptr),
                      ("truth", truth_dtype(prop), (n,), None),
                      ("dev", np.float64, (c,), None)]
            if loss.uses_entry_std:
                fields.append(("std", np.float64, (n,), view.entry_std()))
            if loss.uses_median_order:
                fields.append(("order", order_dtype(c), (c,), None))
            if loss.name == "probability":
                fields.append(("distribution", np.float64,
                               (len(prop.codec), n), None))
            for name, dtype, shape, source in fields:
                key = builder.add(f"p{index}/{name}", dtype, shape)
                if source is not None:
                    copies.append((key, source))
            plan["properties"].append({
                "loss": loss.name, "schema": prop.schema,
                "codec": prop.codec, "n_objects": n,
                "bounds": [int(b) for b in bounds],
            })
        plan["weights_key"] = builder.add("weights", np.float64,
                                          (data.n_sources,))
        try:
            self._segment, descriptors = builder.allocate()
        except OSError as error:
            raise ProcessBackendError(
                f"shared-memory allocation failed: {error}"
            ) from error
        self._finalizer = weakref.finalize(self, _release, self._segment)
        arrays = _carve_views(self._segment.buf, descriptors)
        for key, source in copies:
            arrays[key][...] = source
        for index, (prop, bounds) in enumerate(zip(data.properties,
                                                   self._bounds)):
            target = arrays.get(f"p{index}/order")
            if target is not None:
                # Each range's slice of the one cached sort, rebased to
                # the range's first claim row.
                view = prop.claim_view()
                order = view.median_order()
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    c0, c1 = int(view.indptr[lo]), int(view.indptr[hi])
                    np.subtract(order[c0:c1], c0, out=target[c0:c1])
        self._lanes = _segment_lanes(arrays, plan, losses)
        self._source_idx = [p.claim_view().source_idx
                            for p in data.properties]
        self._weights = arrays[plan["weights_key"]]
        try:
            # fork gives near-free worker startup (the initializer still
            # runs, so this stays spawn-compatible on other platforms).
            start = "fork" if "fork" in get_all_start_methods() else "spawn"
            self._pool = ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=get_context(start),
                initializer=_worker_init,
                initargs=(self._segment.name, descriptors, plan),
            )
        except Exception as error:
            self.close()
            raise ProcessBackendError(
                f"worker pool startup failed: {error}"
            ) from error

    def seed(self, states) -> None:
        """Start a run on the warm pool: stale scratch, zeroed
        efficiency accounting."""
        super().seed(states)
        self._busy = self._parallel_wall = 0.0

    def _execute(self, mode: str, weights, failures) -> None:
        if self._pool is None:
            raise ProcessBackendError("worker pool is closed")
        if weights is not None:
            self._weights[...] = weights
        begun = time.perf_counter()
        futures = [self._pool.submit(_run_task, mode, r, failure)
                   for r, failure in enumerate(failures)]
        busy = sum(future.result() for future in futures)
        self._parallel_wall += time.perf_counter() - begun
        self._busy += busy

    def parallel_efficiency(self) -> float | None:
        """Busy fraction of the pool during parallel rounds:
        ``sum(worker busy seconds) / (n_workers x round wall seconds)``,
        or ``None`` before any round ran."""
        if self._parallel_wall <= 0.0:
            return None
        return self._busy / (self.n_workers * self._parallel_wall)

    def close(self) -> None:
        """Shut the pool down and unlink the segment (idempotent)."""
        super().close()
        self._weights = None
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        segment, self._segment = self._segment, None
        _release(segment)


class ProcessBackend(RunnerBackend):
    """Backend running the truth/deviation steps on worker processes.

    ``data`` is kept as an ordinary (parent-owned)
    :class:`~repro.data.claims_matrix.ClaimsMatrix`, the shared copies
    are internal, so every inline code path (initializers, fallback
    after a worker crash, engines that do not use pools) sees exactly
    the sparse representation.  Results are bit-identical to the dense
    and sparse backends.

    Parameters
    ----------
    n_workers:
        Worker process count; defaults to the session override
        (:func:`set_default_workers`) or the usable CPU count.
    fail_after:
        Test hook: worker tasks with a lifetime ordinal ``>=
        fail_after`` raise inside the worker, exercising the
        degradation path.
    """

    name = "process"

    def __init__(self, data, n_workers: int | None = None,
                 fail_after: int | None = None) -> None:
        super().__init__(data, fail_after)
        if n_workers is None:
            n_workers = get_default_workers() or available_workers()
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)

    def _make_runner(self, losses) -> _ProcessRunner:
        return _ProcessRunner(self.data, losses, self.n_workers,
                              fail_after=self._fail_after)
