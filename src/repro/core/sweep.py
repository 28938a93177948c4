"""The inline CRH step: one truth step and one deviation pass.

One iteration of Algorithm 1 runs a truth step (Eq. 3) and then a
deviation pass (the per-source input of the weight step, Eq. 2/5) over
every property of a dataset.  Inline, each is a plain loop over the
properties calling the loss's only method for that side:

* :func:`resolve_properties` — ``loss.update_truth(prop, weights)`` per
  property.  The batch solver, the baselines, I-CRH's per-window truth
  step and the serving planner's re-resolve all run it.
* :class:`SweepContext` — the same truth step plus
  :func:`~repro.core.objective.per_source_deviations` over one fixed
  ``(dataset, losses, options)`` triple: the inline path of
  :class:`~repro.core.session.ExecutionSession`.

Iteration-invariant per-view state (the claim grouping, the weighted
median's sort order, the per-entry std) is cached on each claim view, so
it is computed once per view lifetime, not per iteration.  The process
and mmap runners evaluate the same loss methods shard- or chunk-wise.
"""

from __future__ import annotations

import numpy as np

from .losses import Loss, TruthState
from .objective import DeviationOptions, per_source_deviations


def resolve_properties(dataset, losses: list[Loss],
                       weights: np.ndarray) -> list[TruthState]:
    """Truth step across every property of ``dataset`` under ``weights``."""
    return [
        loss.update_truth(prop, weights)
        for loss, prop in zip(losses, dataset.properties)
    ]


class SweepContext:
    """The inline truth step and deviation pass for one dataset + losses."""

    def __init__(self, dataset, losses: list[Loss],
                 options: DeviationOptions | None = None) -> None:
        self.dataset = dataset
        self.losses = list(losses)
        self.options = options if options is not None else DeviationOptions()

    def truth_step(self, weights: np.ndarray) -> list[TruthState]:
        """One truth step (:func:`resolve_properties`)."""
        return resolve_properties(self.dataset, self.losses, weights)

    def per_source(self, states: list[TruthState]) -> np.ndarray:
        """Per-source aggregate deviations of ``states`` (Eq. 2's input)."""
        return per_source_deviations(self.dataset, self.losses, states,
                                     self.options)
