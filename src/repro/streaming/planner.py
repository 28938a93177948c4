"""Recompute planning: resolve only what new claims invalidated.

When claims arrive for objects whose truths were already resolved, the
service does not replay the stream — the truth step of CRH/I-CRH is
separable per object, so re-resolving exactly the dirty objects under
the *current* weights reproduces what a full recompute would produce
for them (the oracle property the equivalence tests pin).  Clean
objects keep their chunk-final truths: sealed truths are never
rewritten, so served truths do not depend on ingest batch size.

:func:`resolve_truths` is the shared execution path: it assembles a
chunk from the :class:`~repro.streaming.store.ClaimStore` and runs the
existing per-property loss kernels — the same segment kernels every
backend uses — under a caller-provided weight vector.
"""

from __future__ import annotations

import numpy as np

from ..core.sweep import resolve_properties


class RecomputePlanner:
    """Orders the dirty set for re-resolution."""

    def plan(self, dirty_indices) -> np.ndarray:
        """The store object indices to re-resolve: ``dirty_indices``,
        ascending."""
        return np.asarray(sorted(dirty_indices), dtype=np.int64)


def resolve_truths(store, object_indices: np.ndarray,
                   weights: np.ndarray, losses) -> list[np.ndarray]:
    """Re-resolve the truths of ``object_indices`` under ``weights``.

    ``weights`` is indexed by the store's source positions (length
    ``store.n_sources``); ``losses`` is one
    :class:`~repro.core.losses.Loss` per schema property.  Returns one
    truth column per property, aligned with ``object_indices`` — the
    same kernels and claim order a window seal uses, so a freshly
    sealed object re-resolves bit-identically.  The truth step is the
    inline truth step every engine shares
    (:func:`~repro.core.sweep.resolve_properties`: one
    ``loss.update_truth`` per property).
    """
    chunk = store.dataset_for(object_indices)
    states = resolve_properties(chunk, losses, weights)
    columns: list[np.ndarray] = []
    for state, prop in zip(states, chunk.properties):
        if prop.schema.uses_codec:
            columns.append(np.asarray(state.column, dtype=np.int32))
        else:
            columns.append(np.asarray(state.column, dtype=np.float64))
    return columns
