"""Shared-memory multiprocessing backend: CRH on sharded CSR claims.

The paper parallelizes CRH (Section 2.7) because both blocks of the
coordinate descent decompose cleanly: the truth step is independent per
entry, and the weight step is a per-source sum of per-claim deviations.
:class:`ProcessBackend` exploits exactly that decomposition with real
processes:

* The canonical claim arrays (``values``, ``source_idx``,
  ``object_idx``, ``indptr``), the per-entry stds of Eqs. 13/15, the
  weighted-median sort order localized per shard (for losses that
  declare ``uses_median_order``), the truth/distribution state
  buffers, the per-claim deviation scratch and the source weight
  vector all live in **one** :mod:`multiprocessing.shared_memory`
  segment.  Workers attach once at pool start; per iteration only
  ``(mode, shard_id)`` descriptors cross the process boundary — claim
  data is never pickled.
* The parent sorts each property at most once per claim set
  (:meth:`~repro.data.claims_matrix.ClaimView.median_order`, cached
  on its view and shared with the initializer) and writes shard
  ``[c0, c1)``'s slice as ``order[c0:c1] - c0``: claims are
  object-major and the sort is stable, so that is exactly the shard's
  own lexsort, and no worker sorts.
* Objects are split into contiguous, claim-balanced CSR ranges
  (:func:`repro.mapreduce.partitioner.range_partition`).  Each worker
  task runs the ordinary :mod:`repro.core` losses over a *localized*
  claim view of its shard and writes truth columns and per-claim
  deviations straight into the shared buffers.
* The parent reduces the weight step by running the unmodified
  :func:`repro.core.kernels.accumulate_source_deviations` over the
  full-length deviation scratch — the exact summation the sparse
  backend performs, so results are bit-identical (every kernel is
  shard-invariant; see :func:`repro.core.kernels.segment_weighted_median`).

Lifetime rules: the shared segment and the persistent
:class:`~concurrent.futures.ProcessPoolExecutor` are created lazily on
the first solver run and live until :meth:`ProcessBackend.close` (also
invoked by a ``weakref.finalize`` when the backend is garbage
collected, so abandoned backends do not leak ``/dev/shm`` segments).
Any worker failure — a crashed process, a poisoned task, a broken pool —
surfaces as :class:`ProcessBackendError`; the solver catches it, tears
the pool down and degrades gracefully to inline sparse execution with
the reason recorded in the trace.

Losses listed in :data:`WORKER_LOSSES` — the four built-in losses plus
the claim-view-native extensions (``huber`` and the three Bregman
divergences) — run in workers; configurations with text or custom
dense-only losses degrade to inline execution the same way.
"""

from __future__ import annotations

import os
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory

import numpy as np

from ..data.claims_matrix import ClaimsMatrix, ClaimView, order_dtype
from ..data.table import MultiSourceDataset
from ..mapreduce.partitioner import range_partition
from .backend import BackendExecutionError, _BackendBase

#: loss registry names whose truth/deviation steps workers evaluate;
#: anything else (text medoid, custom dense-only losses) runs inline.
#: Workers rebuild losses with ``loss_by_name(name)``, so only losses
#: whose parameterless construction matches the parent's configuration
#: can be listed here.
WORKER_LOSSES = frozenset({"zero_one", "probability", "squared",
                           "absolute", "huber",
                           "bregman_squared_euclidean",
                           "bregman_itakura_saito",
                           "bregman_generalized_i"})

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

class _SizedCodec:
    """Length-only codec stand-in: losses only ask ``len(prop.codec)``."""

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n


class _ShardProperty:
    """The property surface losses need, restricted to one shard."""

    __slots__ = ("codec", "_view")

    def __init__(self, view: ClaimView,
                 codec: _SizedCodec | None) -> None:
        self.codec = codec
        self._view = view

    def claim_view(self) -> ClaimView:
        return self._view


class _WorkerState:
    """Per-worker cache: segment views, loss instances, shard views."""

    def __init__(self, arrays: dict[str, np.ndarray], plan: dict) -> None:
        from ..core.losses import loss_by_name

        self.arrays = arrays
        self.plan = plan
        self.weights = arrays[plan["weights_key"]]
        self.losses = [loss_by_name(p["loss"])
                       for p in plan["properties"]]
        self._shards: dict[tuple[int, int], tuple] = {}

    def shard(self, index: int, shard_id: int) -> tuple:
        """The localized shard view of property ``index`` (cached)."""
        cached = self._shards.get((index, shard_id))
        if cached is not None:
            return cached
        spec = self.plan["properties"][index]
        keys = spec["keys"]
        lo = spec["bounds"][shard_id]
        hi = spec["bounds"][shard_id + 1]
        indptr = self.arrays[keys["indptr"]]
        c0, c1 = int(indptr[lo]), int(indptr[hi])
        std = (self.arrays[keys["std"]][lo:hi]
               if keys["std"] is not None else None)
        order = (self.arrays[keys["order"]][c0:c1]
                 if keys["order"] is not None else None)
        view = ClaimView(
            values=self.arrays[keys["values"]][c0:c1],
            source_idx=self.arrays[keys["source_idx"]][c0:c1],
            object_idx=(self.arrays[keys["object_idx"]][c0:c1] - lo
                        ).astype(np.int32, copy=False),
            indptr=(indptr[lo:hi + 1] - c0).astype(np.int64),
            n_objects=hi - lo,
            n_sources=self.plan["n_sources"],
            _std=std,
            _median_order=order,
        )
        codec = (_SizedCodec(spec["n_categories"])
                 if spec["n_categories"] else None)
        entry = (_ShardProperty(view, codec), lo, hi, c0, c1, std)
        self._shards[(index, shard_id)] = entry
        return entry


_WORKER: _WorkerState | None = None


def _worker_init(segment_name: str, descriptors: dict,
                 plan: dict) -> None:
    """Pool initializer: attach the segment, build the worker cache.

    Spawn-compatible — everything needed arrives through the (one-time)
    pickled arguments, nothing through inherited globals.  Tracemalloc
    state inherited by fork is switched off so worker hot paths stay
    unmeasured.
    """
    global _WORKER
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    segment = _attach_segment(segment_name)
    # Keep the mapping alive for the worker's lifetime.
    _WORKER = _WorkerState(_carve_views(segment.buf, descriptors), plan)
    _WORKER.segment = segment  # type: ignore[attr-defined]


def _run_task(mode: str, shard_id: int, fail: bool) -> dict:
    """One shard task: truth step and/or deviation fill for every
    property; returns per-phase busy seconds for efficiency accounting.

    ``mode`` is ``"step"`` (truth update then deviations under the new
    truths) or ``"dev"`` (deviations under the buffered truths only —
    the initial weight step).  ``fail`` is the crash-injection hook of
    the worker-lifecycle tests.
    """
    from ..core.losses import TruthState

    if fail:
        raise RuntimeError("injected worker failure (fail_after)")
    state = _WORKER
    assert state is not None, "worker used before initialization"
    timings = {"truth": 0.0, "deviation": 0.0}
    for index, spec in enumerate(state.plan["properties"]):
        prop, lo, hi, c0, c1, std = state.shard(index, shard_id)
        keys = spec["keys"]
        loss = state.losses[index]
        truth = state.arrays[keys["truth"]]
        dist = (state.arrays[keys["distribution"]]
                if keys["distribution"] is not None else None)
        if mode == "step":
            begun = time.perf_counter()
            updated = loss.update_truth(prop, state.weights)
            truth[lo:hi] = updated.column
            if dist is not None:
                dist[:, lo:hi] = updated.distribution
            timings["truth"] += time.perf_counter() - begun
        begun = time.perf_counter()
        shard_state = TruthState(
            column=truth[lo:hi],
            distribution=None if dist is None else dist[:, lo:hi],
            aux={} if std is None else {"std": std},
        )
        state.arrays[keys["dev"]][c0:c1] = loss.claim_deviations(
            shard_state, prop
        )
        timings["deviation"] += time.perf_counter() - begun
    return timings


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


class _ProcessRunner:
    """A warm worker pool plus the shared buffers of one loss config.

    Created by :meth:`ProcessBackend.start_runner` and reused across
    iterations (and across solver runs with the same losses).  All
    claim arrays are copied into the segment once at construction; each
    iteration moves only shard ids and the weight vector.
    """

    def __init__(self, data: ClaimsMatrix, losses, n_workers: int,
                 fail_after: int | None = None) -> None:
        names = [loss.name for loss in losses]
        unsupported = [n for n in names if n not in WORKER_LOSSES]
        if unsupported:
            raise ProcessBackendError(
                f"losses {unsupported} have no worker implementation "
                f"(supported: {sorted(WORKER_LOSSES)})"
            )
        self._data = data
        self._losses = list(losses)
        self.n_workers = n_workers
        self.n_shards = n_workers
        self._fail_after = fail_after
        self._tasks_sent = 0
        self._segment: shared_memory.SharedMemory | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._scratch_fresh = False
        self._busy = {"truth": 0.0, "deviation": 0.0}
        self._parallel_wall = 0.0

        builder = _SegmentBuilder()
        plan: dict = {"n_sources": data.n_sources, "properties": []}
        copies: list[tuple[str, np.ndarray]] = []
        for index, (prop, loss) in enumerate(zip(data.properties,
                                                 losses)):
            view = prop.claim_view()
            n, c = view.n_objects, view.n_claims
            keys = {
                "values": builder.add(f"p{index}/values",
                                      view.values.dtype, (c,)),
                "source_idx": builder.add(f"p{index}/source_idx",
                                          np.int32, (c,)),
                "object_idx": builder.add(f"p{index}/object_idx",
                                          np.int32, (c,)),
                "indptr": builder.add(f"p{index}/indptr",
                                      np.int64, (n + 1,)),
                "std": None,
                "order": None,
                "distribution": None,
                "truth": builder.add(
                    f"p{index}/truth",
                    np.int32 if prop.schema.uses_codec else np.float64,
                    (n,),
                ),
                "dev": builder.add(f"p{index}/dev", np.float64, (c,)),
            }
            copies += [(keys["values"], view.values),
                       (keys["source_idx"], view.source_idx),
                       (keys["object_idx"], view.object_idx),
                       (keys["indptr"], view.indptr)]
            if loss.uses_entry_std:
                keys["std"] = builder.add(f"p{index}/std",
                                          np.float64, (n,))
                copies.append((keys["std"], view.entry_std()))
            if loss.uses_median_order:
                keys["order"] = builder.add(f"p{index}/order",
                                            order_dtype(c), (c,))
            n_categories = len(prop.codec) if prop.codec is not None else 0
            if loss.name == "probability":
                keys["distribution"] = builder.add(
                    f"p{index}/distribution", np.float64,
                    (n_categories, n),
                )
            plan["properties"].append({
                "loss": loss.name,
                "n_categories": n_categories,
                "keys": keys,
                "bounds": [int(b) for b in
                           range_partition(view.indptr, self.n_shards)],
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
        self._arrays = _carve_views(self._segment.buf, descriptors)
        for key, source in copies:
            self._arrays[key][...] = source
        for spec, prop in zip(plan["properties"], data.properties):
            if spec["keys"]["order"] is not None:
                self._localize_order(spec, prop.claim_view())
        self._plan = plan
        try:
            import multiprocessing

            # fork gives near-free worker startup (the initializer still
            # runs, so this stays spawn-compatible on other platforms).
            start = ("fork" if "fork"
                     in multiprocessing.get_all_start_methods()
                     else "spawn")
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

    def _localize_order(self, spec: dict, view: ClaimView) -> None:
        """Write each shard's slice of the view's cached median order,
        rebased to the shard's first claim row, into the segment."""
        order = view.median_order()
        target = self._arrays[spec["keys"]["order"]]
        bounds = spec["bounds"]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            c0, c1 = int(view.indptr[lo]), int(view.indptr[hi])
            np.subtract(order[c0:c1], c0, out=target[c0:c1])

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the pool is (still) usable."""
        return self._pool is not None

    def reset(self) -> None:
        """Start a fresh run on the warm pool: zeroed efficiency
        accounting, stale scratch."""
        self._scratch_fresh = False
        self._busy = {"truth": 0.0, "deviation": 0.0}
        self._parallel_wall = 0.0

    def seed(self, states) -> None:
        """Write initial truth states into the shared state buffers."""
        for spec, state in zip(self._plan["properties"], states):
            keys = spec["keys"]
            self._arrays[keys["truth"]][...] = state.column
            if keys["distribution"] is not None:
                self._arrays[keys["distribution"]][...] = \
                    state.distribution
        self._scratch_fresh = False

    def _dispatch(self, mode: str) -> None:
        """Run one round of shard tasks; accumulate busy/wall seconds."""
        if self._pool is None:
            raise ProcessBackendError("worker pool is closed")
        flags = []
        for _ in range(self.n_shards):
            flags.append(self._fail_after is not None
                         and self._tasks_sent >= self._fail_after)
            self._tasks_sent += 1
        begun = time.perf_counter()
        try:
            futures = [self._pool.submit(_run_task, mode, shard, flag)
                       for shard, flag in enumerate(flags)]
            results = [future.result() for future in futures]
        except (BrokenProcessPool, OSError, RuntimeError) as error:
            raise ProcessBackendError(
                f"worker round ({mode}) failed: {error}"
            ) from error
        self._parallel_wall += time.perf_counter() - begun
        self._busy["truth"] += sum(r["truth"] for r in results)
        self._busy["deviation"] += sum(r["deviation"] for r in results)

    def truth_step(self, weights) -> list:
        """One parallel truth round; returns fresh per-property states.

        Workers also fill the deviation scratch under the new truths,
        so the following :meth:`per_source` needs no extra round.
        Returned states hold parent-owned copies, so the solver can
        keep iterating inline if the pool dies later.
        """
        from ..core.losses import TruthState

        self._arrays[self._plan["weights_key"]][...] = weights
        self._dispatch("step")
        self._scratch_fresh = True
        states = []
        for spec, prop in zip(self._plan["properties"],
                              self._data.properties):
            keys = spec["keys"]
            aux = {}
            if keys["std"] is not None:
                aux["std"] = prop.claim_view().entry_std()
            states.append(TruthState(
                column=self._arrays[keys["truth"]].copy(),
                distribution=(
                    None if keys["distribution"] is None
                    else self._arrays[keys["distribution"]].copy()
                ),
                aux=aux,
            ))
        return states

    def per_source(self, states, options) -> np.ndarray:
        """Per-source aggregate deviations of the buffered truth state.

        Dispatches a deviation-only round when the scratch is stale
        (the initial weight step); the reduction itself runs in the
        parent through the unmodified
        :func:`repro.core.objective.per_source_deviations` /
        :func:`repro.core.kernels.accumulate_source_deviations` path,
        so the summation order — and therefore every bit — matches the
        sparse backend.
        """
        from ..core.objective import per_source_deviations

        if not self._scratch_fresh:
            self._dispatch("dev")
            self._scratch_fresh = True
        scratch = [self._arrays[spec["keys"]["dev"]]
                   for spec in self._plan["properties"]]

        def from_scratch(index, prop, loss, state):
            return scratch[index]

        return per_source_deviations(self._data, self._losses, states,
                                     options,
                                     claim_deviations=from_scratch)

    def parallel_efficiency(self) -> float | None:
        """Busy fraction of the pool during parallel rounds:
        ``sum(worker busy seconds) / (n_workers x round wall seconds)``,
        or ``None`` before any round ran."""
        if self._parallel_wall <= 0.0:
            return None
        busy = self._busy["truth"] + self._busy["deviation"]
        return busy / (self.n_workers * self._parallel_wall)

    def close(self) -> None:
        """Shut the pool down and unlink the segment (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        segment, self._segment = self._segment, None
        _release(segment)


class ProcessBackend(_BackendBase):
    """Backend running the truth/deviation steps on worker processes.

    ``data`` is kept as an ordinary (parent-owned)
    :class:`~repro.data.claims_matrix.ClaimsMatrix` — the shared copies
    are internal — so every inline code path (initializers, fallback
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
        fail_after`` raise, exercising the degradation path.
    """

    name = "process"
    #: marks backends whose :meth:`start_runner` the solver should use
    supports_runner = True

    def __init__(self, data, n_workers: int | None = None,
                 fail_after: int | None = None) -> None:
        if isinstance(data, MultiSourceDataset):
            data = ClaimsMatrix.from_dense(data)
        super().__init__(data)
        if n_workers is None:
            n_workers = get_default_workers() or available_workers()
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._fail_after = fail_after
        self._runner: _ProcessRunner | None = None
        self._runner_key: tuple | None = None

    def start_runner(self, losses) -> _ProcessRunner:
        """The warm runner for ``losses`` (created or reused).

        Raises :class:`ProcessBackendError` when the configuration has
        no worker implementation or the pool cannot start; the solver
        degrades to inline execution in that case.
        """
        key = tuple(loss.name for loss in losses)
        if (self._runner is not None and self._runner.alive
                and self._runner_key == key):
            self._runner.reset()
            return self._runner
        self.close()
        runner = _ProcessRunner(self.data, losses, self.n_workers,
                                fail_after=self._fail_after)
        self._runner = runner
        self._runner_key = key
        return runner

    def close(self) -> None:
        """Release the pool and shared segment (idempotent)."""
        runner, self._runner = self._runner, None
        self._runner_key = None
        if runner is not None:
            runner.close()
