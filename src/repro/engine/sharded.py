"""The range-partitioned truth/deviation core of the process and mmap
backends.

The paper parallelizes CRH (Section 2.7) because both blocks of the
coordinate descent decompose: the truth step is independent per entry,
and the weight step is a per-source sum of per-claim deviations.
:class:`ShardedRunner` is that decomposition, written once.  Every
property's objects are split into contiguous, claim-balanced ranges
(:func:`repro.mapreduce.partitioner.range_partition`); a range task
localizes range ``r`` of every property (:meth:`Lane.localize`), runs
the unmodified losses on it and writes truth columns and per-claim
deviations into full-length buffers; the weight step reduces the
deviation scratch once through
:func:`repro.core.objective.reduce_source_deviations`, the inline
reduction, so the summation order, and with it every bit, is the
sparse backend's (every segment kernel is range-invariant).

Subclasses are the executors and say only where the arrays live and who
runs a range: :class:`repro.engine.process._ProcessRunner` dispatches
ranges to a forked pool over one shared-memory segment, and
:class:`repro.engine.mmap._MmapRunner` loops over them in-process, one
range of memory-mapped claims resident at a time.  ``fail_after``'s
injected failure is raised where the range runs (inside the worker on
the pool); an ``OSError``, ``ValueError`` or ``RuntimeError`` of a
round, a broken pool included, surfaces as the executor's typed
:class:`~repro.engine.backend.BackendExecutionError`, on which the
solver finishes the run inline on sparse claims.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.claims_matrix import ClaimView
from ..mapreduce.partitioner import range_partition
from .backend import BackendExecutionError, SparseBackend

#: loss registry names the runners evaluate: the four paper losses plus
#: the claim-view-native huber and Bregman extensions.  Anything else
#: (text medoid, custom dense-only losses) degrades to inline sparse.
#: Pool workers rebuild losses with ``loss_by_name(name)``, so only
#: losses whose parameterless construction matches the parent's
#: configuration can be listed here.
RUNNER_LOSSES = frozenset({"zero_one", "probability", "squared",
                           "absolute", "huber",
                           "bregman_squared_euclidean",
                           "bregman_itakura_saito",
                           "bregman_generalized_i"})


class RangeProperty:
    """The property surface losses and initializers read:
    ``schema``, ``codec`` and ``claim_view()``."""

    __slots__ = ("schema", "codec", "_view")

    def __init__(self, schema, codec, view: ClaimView) -> None:
        self.schema = schema
        self.codec = codec
        self._view = view

    def claim_view(self) -> ClaimView:
        """The (possibly range-localized) claim view."""
        return self._view


class Lane:
    """One property as range tasks read and write it.

    ``prop`` holds the full claim arrays, ``bounds`` the object ranges.
    ``std`` and ``order`` are the full entry std and weighted-median
    order when the loss reads them.  ``truth``, ``distribution`` and
    ``dev`` are the full-length outputs (absent for read-only lanes).

    ``resident`` lanes sit on arrays already in memory (a shared
    segment): their localized ranges are views, cached across rounds,
    and their ``order`` is stored range-local already.  Other lanes
    copy each range into RAM when it runs and drop it afterwards.
    """

    def __init__(self, prop, bounds, loss=None, *, std=None, order=None,
                 truth=None, distribution=None, dev=None,
                 resident: bool = False) -> None:
        self.prop = prop
        self.bounds = [int(b) for b in bounds]
        self.loss = loss
        self.std = std
        self.order = order
        self.truth = truth
        self.distribution = distribution
        self.dev = dev
        self._cache: dict | None = {} if resident else None

    def localize(self, r: int) -> tuple[int, int, int, int, RangeProperty]:
        """``(lo, hi, c0, c1, prop)`` of range ``r``: its object rows,
        its claim rows, and the localized property."""
        if self._cache is not None and r in self._cache:
            return self._cache[r]
        lo, hi = self.bounds[r], self.bounds[r + 1]
        view = self.prop.claim_view()
        c0, c1 = int(view.indptr[lo]), int(view.indptr[hi])
        take = np.array if self._cache is None else np.asarray
        order = None
        if self.order is not None:
            # The full order's slice minus c0 is the range's own lexsort
            # (claims are object-major and the sort is stable).
            order = (np.asarray(self.order[c0:c1]) - c0
                     if self._cache is None else self.order[c0:c1])
        local = ClaimView(
            values=take(view.values[c0:c1]),
            source_idx=take(view.source_idx[c0:c1]),
            object_idx=(view.object_idx[c0:c1] - lo
                        ).astype(np.int32, copy=False),
            indptr=(view.indptr[lo:hi + 1] - c0).astype(np.int64),
            n_objects=hi - lo,
            n_sources=view.n_sources,
            _std=None if self.std is None else self.std[lo:hi],
            _median_order=order,
        )
        entry = (lo, hi, c0, c1,
                 RangeProperty(self.prop.schema, self.prop.codec, local))
        if self._cache is not None:
            self._cache[r] = entry
        return entry

    def ranges(self):
        """Every range with objects, localized, in order."""
        for r in range(len(self.bounds) - 1):
            if self.bounds[r] < self.bounds[r + 1]:
                yield self.localize(r)

    def run(self, r: int, mode: str, weights) -> None:
        """Range ``r``'s task: with ``mode == "step"`` the truth update
        under ``weights`` first, then the deviations under the buffered
        truths (``mode == "dev"`` runs only those)."""
        from ..core.losses import TruthState

        if self.bounds[r] == self.bounds[r + 1]:
            return
        lo, hi, c0, c1, prop = self.localize(r)
        if mode == "step":
            updated = self.loss.update_truth(prop, weights)
            self.truth[lo:hi] = updated.column
            if self.distribution is not None:
                self.distribution[:, lo:hi] = updated.distribution
        state = TruthState(
            column=self.truth[lo:hi],
            distribution=(None if self.distribution is None
                          else self.distribution[:, lo:hi]),
            aux={} if self.std is None else {"std": self.std[lo:hi]},
        )
        self.dev[c0:c1] = self.loss.claim_deviations(state, prop)


def run_range(lanes, r: int, mode: str, weights,
              failure: str | None = None) -> float:
    """Run range ``r`` of every lane; returns its busy seconds.

    ``failure`` is ``fail_after``'s injected error message, raised
    where the range runs."""
    if failure is not None:
        raise RuntimeError(failure)
    begun = time.perf_counter()
    for lane in lanes:
        lane.run(r, mode, weights)
    return time.perf_counter() - begun


def truth_dtype(prop):
    """Truth column dtype: codes for codec-backed properties."""
    return np.int32 if prop.schema.uses_codec else np.float64


class ShardedRunner:
    """Range-partitioned truth/deviation execution of one loss config.

    The runner protocol the solver drives (``seed`` / ``truth_step`` /
    ``per_source`` / ``parallel_efficiency`` / ``close``).  A subclass
    builds ``self._lanes`` over its own arrays, says which indices the
    reduction reads (``self._source_idx``) and runs a round in
    :meth:`_execute`.
    """

    #: the typed error rounds and setup failures surface as
    error = BackendExecutionError
    #: ``fail_after``'s injected error message
    injected = "injected range failure (fail_after)"

    def __init__(self, data, losses, n_ranges: int,
                 fail_after: int | None = None) -> None:
        unsupported = [loss.name for loss in losses
                       if loss.name not in RUNNER_LOSSES]
        if unsupported:
            raise self.error(
                f"losses {unsupported} have no range-partitioned "
                f"implementation (supported: {sorted(RUNNER_LOSSES)})"
            )
        self._data = data
        self._losses = list(losses)
        self.n_ranges = int(n_ranges)
        self._bounds = [range_partition(p.claim_view().indptr,
                                        self.n_ranges)
                        for p in data.properties]
        self._fail_after = fail_after
        self._ranges_started = 0
        self._scratch_fresh = False
        self._lanes: list[Lane] = []
        self._source_idx: list = []

    def seed(self, states) -> None:
        """Start a run: the deviation scratch is stale until a round
        fills it under ``states`` (or a truth step's new truths)."""
        self._scratch_fresh = False

    def _run(self, mode: str, weights) -> None:
        failures = []
        for _ in range(self.n_ranges):
            failures.append(self.injected if self._fail_after is not None
                            and self._ranges_started >= self._fail_after
                            else None)
            self._ranges_started += 1
        try:
            self._execute(mode, weights, failures)
        except (OSError, ValueError, RuntimeError) as error:
            raise self.error(f"{mode} round failed: {error}") from error

    def truth_step(self, weights) -> list:
        """One truth round; returns fresh per-property states.

        Each range also fills its deviations under the new truths, so
        the following :meth:`per_source` needs no second round.  The
        states hold copies, so the solver can keep iterating inline if
        the runner fails later.
        """
        from ..core.losses import TruthState

        self._run("step", np.asarray(weights, dtype=np.float64))
        self._scratch_fresh = True
        return [
            TruthState(
                column=lane.truth.copy(),
                distribution=(None if lane.distribution is None
                              else lane.distribution.copy()),
                aux=({"std": prop.claim_view().entry_std()}
                     if loss.uses_entry_std else {}),
            )
            for lane, prop, loss in zip(self._lanes, self._data.properties,
                                        self._losses)
        ]

    def per_source(self, states, options) -> np.ndarray:
        """Per-source aggregate deviations of ``states``.

        A stale scratch (the initial weight step) is filled by a
        deviation-only round under ``states`` first.
        """
        from ..core.objective import reduce_source_deviations

        if not self._scratch_fresh:
            for lane, state in zip(self._lanes, states):
                lane.truth[...] = state.column
                if lane.distribution is not None:
                    lane.distribution[...] = state.distribution
            self._run("dev", None)
            self._scratch_fresh = True
        return reduce_source_deviations(
            ((lane.dev, idx) for lane, idx in zip(self._lanes,
                                                  self._source_idx)),
            self._data.n_sources, options,
        )

    def parallel_efficiency(self) -> float | None:
        """Busy share of a pool; ``None`` for in-process execution."""
        return None

    def close(self) -> None:
        """Release the runner's buffers (idempotent)."""
        self._lanes = []
        self._source_idx = []


class RunnerBackend(SparseBackend):
    """Sparse claim storage whose truth/deviation steps a
    :class:`ShardedRunner` executes; the solver arms it through
    :meth:`start_runner`, which reuses the runner ``_make_runner``
    built while the losses stay the same.  ``fail_after`` is the test
    hook: ranges with a lifetime ordinal ``>= fail_after`` raise,
    exercising the degradation path."""

    #: marks backends whose :meth:`start_runner` the solver drives
    supports_runner = True

    def __init__(self, data, fail_after: int | None = None) -> None:
        super().__init__(data)
        self._fail_after = fail_after
        self._runner: ShardedRunner | None = None
        self._runner_key: tuple | None = None

    def start_runner(self, losses) -> ShardedRunner:
        """The warm runner for ``losses`` (created or reused).

        Raises the backend's typed error when a loss has no
        range-partitioned implementation or setup fails; the solver
        degrades to inline sparse execution in that case.
        """
        key = tuple(loss.name for loss in losses)
        if self._runner is None or self._runner_key != key:
            self.close()
            self._runner = self._make_runner(losses)
            self._runner_key = key
        return self._runner

    def close(self) -> None:
        """Release the runner and its buffers (idempotent)."""
        runner, self._runner = self._runner, None
        self._runner_key = None
        if runner is not None:
            runner.close()
