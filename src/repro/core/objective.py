"""Objective computation and per-source deviation aggregation (Eq. 1).

The solver needs two reductions every iteration:

* the ``(K,)`` per-source aggregate deviations feeding the weight step —
  optionally normalized by each source's observation count (Section 2.5,
  "Missing values") and by a per-property scale (Section 2.5,
  "Normalization");
* the scalar objective value ``f(X*, W)`` used by the convergence check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import accumulate_source_deviations
from .losses import Loss, TruthState


@dataclass(frozen=True)
class DeviationOptions:
    """How per-source deviations are aggregated across entries/properties.

    Parameters
    ----------
    normalize_by_counts:
        Divide each source's total deviation by its number of observations,
        so sparse sources are not spuriously "reliable" (Section 2.5).
    property_scale:
        ``"none"`` — sum property deviations as-is (the continuous losses
        already divide by the per-entry std, which is the normalization the
        paper's experiments use); ``"mean"`` — additionally divide every
        property's deviation matrix by its mean observed deviation, forcing
        all properties into a comparable range (useful when custom losses
        with very different output scales are mixed).
    """

    normalize_by_counts: bool = True
    property_scale: str = "none"

    def __post_init__(self) -> None:
        if self.property_scale not in ("none", "mean"):
            raise ValueError(
                f"property_scale must be 'none' or 'mean', "
                f"got {self.property_scale!r}"
            )


def per_source_deviations(
    dataset,
    losses: list[Loss],
    states: list[TruthState],
    options: DeviationOptions = DeviationOptions(),
) -> np.ndarray:
    """Aggregate ``(K,)`` deviations of every source from the truths.

    ``dataset`` may be a dense
    :class:`~repro.data.table.MultiSourceDataset` or a sparse
    :class:`~repro.data.claims_matrix.ClaimsMatrix`: the reduction runs
    over each property's claim view either way, one property at a time,
    through :func:`reduce_source_deviations`.
    """
    return reduce_source_deviations(
        ((loss.claim_deviations(state, prop), prop.claim_view().source_idx)
         for prop, loss, state in zip(dataset.properties, losses, states)),
        dataset.n_sources, options,
    )


def reduce_source_deviations(pairs, n_sources: int,
                             options: DeviationOptions = DeviationOptions(),
                             ) -> np.ndarray:
    """The weight step's ``(K,)`` reduction of per-claim deviations.

    ``pairs`` yields one ``(deviations, source_idx)`` pair of
    ``(n_claims,)`` arrays per property, in canonical claim order.  The
    inline path computes each property's deviations as it goes; the
    process and mmap runners pass the full-length scratch their ranges
    filled, so the summation order, and therefore every bit of the
    result, is the inline one.
    """
    totals = np.zeros(n_sources, dtype=np.float64)
    counts = np.zeros(n_sources, dtype=np.float64)
    for dev, source_idx in pairs:
        if options.property_scale == "mean":
            with np.errstate(invalid="ignore"):
                scale = np.nanmean(dev) if dev.size else np.nan
            if np.isfinite(scale) and scale > 0:
                dev = dev / scale
        prop_totals, prop_counts = accumulate_source_deviations(
            dev, source_idx, n_sources
        )
        totals += prop_totals
        counts += prop_counts
    if options.normalize_by_counts:
        with np.errstate(invalid="ignore", divide="ignore"):
            normalized = totals / counts
        return np.where(counts > 0, normalized, 0.0)
    return totals


def objective_value(
    dataset,
    losses: list[Loss],
    states: list[TruthState],
    weights: np.ndarray,
    options: DeviationOptions = DeviationOptions(),
) -> float:
    """The CRH objective ``f(X*, W)`` (Eq. 1) under the aggregation options.

    Computed as ``W . L`` where ``L`` is the per-source aggregate, so the
    objective the convergence check monitors is exactly the one the weight
    step minimized.
    """
    per_source = per_source_deviations(dataset, losses, states, options)
    return float(np.dot(np.asarray(weights, dtype=np.float64), per_source))


@dataclass
class ConvergenceCriterion:
    """Stop when the objective's relative decrease falls below ``tol``.

    The first several CRH iterations cause a large drop in the objective
    and the iterates stabilize quickly afterwards (Section 2.5), so a
    relative-change test is both faithful and cheap.  ``patience`` > 1
    requires the criterion to hold for that many consecutive iterations.
    """

    tol: float = 1e-6
    patience: int = 1

    def __post_init__(self) -> None:
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        self._streak = 0
        self._previous: float | None = None

    def reset(self) -> None:
        """Forget the previous objective (restart the criterion)."""
        self._streak = 0
        self._previous = None

    def update(self, objective: float) -> bool:
        """Feed the latest objective; returns True when converged."""
        previous = self._previous
        self._previous = objective
        if previous is None:
            return False
        denominator = max(abs(previous), 1e-300)
        change = abs(previous - objective) / denominator
        if change <= self.tol:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.patience
