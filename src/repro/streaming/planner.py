"""Recompute planning: resolve only what new claims invalidated.

When claims arrive for objects whose truths were already resolved, the
service does not replay the stream — the truth step of CRH/I-CRH is
separable per object, so re-resolving exactly the dirty objects under
the *current* weights reproduces what a full recompute would produce
for them (the oracle property the equivalence tests pin).  The planner
decides the scope:

* ``none``  — dirty set empty, nothing to do;
* ``dirty`` — re-resolve the dirty objects only (the common case);
* ``full``  — the dirty set crossed ``full_fraction`` of all objects,
  so one batched pass over everything is cheaper than per-object
  bookkeeping.

:func:`resolve_truths` is the shared execution path: it assembles a
chunk from the :class:`~repro.streaming.store.ClaimStore` and runs the
existing per-property loss kernels — the same segment kernels every
backend uses — under a caller-provided weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.sweep import resolve_properties


@dataclass(frozen=True)
class RecomputePlan:
    """What the planner decided to re-resolve."""

    #: ``none``, ``dirty`` or ``full``
    scope: str
    #: store object indices to re-resolve (empty for ``none``)
    object_indices: np.ndarray
    #: per-plan scratch: :func:`resolve_truths` stashes the assembled
    #: chunk here so repeated resolves under one plan reuse the chunk's
    #: claim views — and with them the cached claim grouping and median
    #: sort plans — instead of re-deriving them from ``indptr`` per call.
    #: The cache reflects the store at first-assembly time, which is
    #: exactly the plan's own lifetime contract (a plan is computed from
    #: one dirty snapshot and discarded after it is applied).
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_objects(self) -> int:
        """How many objects the plan re-resolves."""
        return int(self.object_indices.size)


class RecomputePlanner:
    """Chooses between dirty-set and full recomputation.

    ``full_fraction`` is the dirty-set share of all objects above which
    a full pass is planned instead (1.0 disables escalation).
    """

    def __init__(self, full_fraction: float = 0.5) -> None:
        if not 0.0 < full_fraction <= 1.0:
            raise ValueError(
                f"full_fraction must be in (0, 1], got {full_fraction}"
            )
        self.full_fraction = full_fraction

    def plan(self, dirty_indices, n_objects: int) -> RecomputePlan:
        """Plan a recompute for ``dirty_indices`` out of ``n_objects``."""
        dirty = np.asarray(sorted(dirty_indices), dtype=np.int64)
        if dirty.size == 0:
            return RecomputePlan("none", dirty)
        if n_objects and dirty.size >= self.full_fraction * n_objects:
            return RecomputePlan(
                "full", np.arange(n_objects, dtype=np.int64))
        return RecomputePlan("dirty", dirty)


def resolve_truths(store, object_indices: np.ndarray,
                   weights: np.ndarray, losses, *,
                   plan: RecomputePlan | None = None) -> list[np.ndarray]:
    """Re-resolve the truths of ``object_indices`` under ``weights``.

    ``weights`` is indexed by the store's source positions (length
    ``store.n_sources``); ``losses`` is one
    :class:`~repro.core.losses.Loss` per schema property.  Returns one
    truth column per property, aligned with ``object_indices`` — the
    same kernels and claim order a window seal uses, so a freshly
    sealed object re-resolves bit-identically.

    When ``plan`` is given, the chunk assembled from the store is cached
    on ``plan.cache`` so repeated resolves under the same plan (e.g.
    weight refreshes against one dirty snapshot) reuse the chunk's claim
    views and their cached grouping / median sort plans rather than
    recomputing them from ``indptr`` every call.  The truth step itself
    is the inline truth step every engine shares
    (:func:`~repro.core.sweep.resolve_properties`: one
    ``loss.update_truth`` per property), so a re-resolve runs exactly
    the kernels a batch solve or a window seal runs.
    """
    chunk = plan.cache.get("chunk") if plan is not None else None
    if chunk is None:
        chunk = store.dataset_for(object_indices)
        if plan is not None:
            plan.cache["chunk"] = chunk
    states = resolve_properties(chunk, losses, weights)
    columns: list[np.ndarray] = []
    for state, prop in zip(states, chunk.properties):
        if prop.schema.uses_codec:
            columns.append(np.asarray(state.column, dtype=np.int32))
        else:
            columns.append(np.asarray(state.column, dtype=np.float64))
    return columns
