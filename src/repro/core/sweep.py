"""Fused multi-property sweep: shared per-view state, reusable scratch.

One CRH iteration runs a truth step and a deviation pass over every
property of a dataset.  Executed naively, each of the 8+ segment
kernels re-derives the same per-view state — the claim grouping, the
effective (zero-total-fallback-applied) claim weights, the weighted
median's lexsort order — and allocates a fresh per-claim output array
per call.  This module fuses the sweep:

* :func:`resolve_properties` is the fused truth step: per property it
  gathers the claim weights and computes
  :func:`~repro.core.kernels.effective_claim_weights` **once**, then
  hands both to the loss via
  :meth:`~repro.core.losses.Loss.update_truth_fused`; the grouping
  (``view.object_idx``) and the median sort plan
  (:meth:`~repro.data.claims_matrix.ClaimView.median_plan`) are cached
  on the claim view itself, so they are computed once per view
  *lifetime*, not per iteration.
* :class:`SweepContext` owns the iteration-independent scratch: one
  preallocated per-claim deviation buffer per property (filled through
  :meth:`~repro.core.losses.Loss.claim_deviations_into`) and one
  per-source ``(totals, counts)`` pair threaded through
  :func:`~repro.core.kernels.accumulate_source_deviations`, so the
  weight step's reduction allocates nothing per iteration.

Everything here is pure reuse: the kernels receive precomputed values
they would otherwise derive themselves, byte for byte, so fused and
unfused execution are bit-identical (pinned by ``TestFusedSweepReuse``
in ``tests/test_kernels.py``).

The solver's inline execution path (the dense and sparse backends, and
any run degraded off a parallel runner) goes through a
:class:`SweepContext`; the process backend gets the same reuse
shard-locally because its workers cache per-shard claim views, and the
mmap backend recomputes the per-chunk state chunk-locally — acceptable
because chunks stream and own no persistent views.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .losses import Loss, TruthState
from .objective import DeviationOptions, per_source_deviations


def resolve_properties(dataset, losses: list[Loss],
                       weights: np.ndarray) -> list[TruthState]:
    """Fused truth step across every property of ``dataset``.

    Per property: gather the per-claim weights and compute the
    effective-weight pair once, then run the loss's truth update with
    both precomputed (:meth:`~repro.core.losses.Loss.update_truth_fused`
    falls back to the plain :meth:`~repro.core.losses.Loss.update_truth`
    for custom losses that don't consume them).  Bit-identical to
    calling ``loss.update_truth(prop, weights)`` per property.
    """
    states: list[TruthState] = []
    for prop, loss in zip(dataset.properties, losses):
        view = prop.claim_view()
        claim_weights = view.claim_weights(weights)
        effective = kernels.effective_claim_weights(
            claim_weights, view.indptr, view.object_idx
        )
        states.append(loss.update_truth_fused(
            prop, weights,
            claim_weights=claim_weights, effective=effective,
        ))
    return states


class SweepContext:
    """Reusable fused-sweep state for one dataset + loss assignment.

    Construction allocates the per-property deviation scratch (one
    float64 buffer per property, sized to its claim count) and the
    per-source accumulation pair; both live for the context's lifetime
    and are refilled every iteration.  The scratch makes a context
    single-threaded state, like the kernel layer's sort plans: one
    solve loop per context.
    """

    def __init__(self, dataset, losses: list[Loss],
                 options: DeviationOptions | None = None) -> None:
        self.dataset = dataset
        self.losses = list(losses)
        self.options = options if options is not None else DeviationOptions()
        self._deviation_scratch = [
            np.empty(prop.claim_view().n_claims, dtype=np.float64)
            for prop in dataset.properties
        ]
        n_sources = dataset.n_sources
        self._accumulate_scratch = (
            np.zeros(n_sources, dtype=np.float64),
            np.zeros(n_sources, dtype=np.float64),
        )

    def truth_step(self, weights: np.ndarray) -> list[TruthState]:
        """The fused truth step (:func:`resolve_properties`)."""
        return resolve_properties(self.dataset, self.losses, weights)

    def per_source(self, states: list[TruthState]) -> np.ndarray:
        """The deviation pass through this context's scratch buffers.

        Same reduction as
        :func:`~repro.core.objective.per_source_deviations` — same
        property order, same per-property accumulation — with the
        per-claim deviations written into the preallocated scratch
        instead of fresh arrays.
        """
        return per_source_deviations(
            self.dataset, self.losses, states, self.options,
            claim_deviations=self._fill_deviations,
            accumulate_out=self._accumulate_scratch,
        )

    def _fill_deviations(self, index: int, prop, loss: Loss,
                         state: TruthState) -> np.ndarray:
        """Fill property ``index``'s scratch with its claim deviations."""
        return loss.claim_deviations_into(
            state, prop, self._deviation_scratch[index]
        )
