"""Scalar reference versions of CRH's weighted truth updates.

The truth step of CRH (Eq. 3) reduces to a weighted statistic per entry:
weighted vote for the 0-1 loss, weighted mean for the squared losses,
weighted median for the absolute loss.  The solver computes them over
whole claim arrays with :mod:`repro.core.kernels`; this module keeps a
readable one-entry-at-a-time version of each, which the kernel tests use
as the oracle.  :func:`column_std` is the Eqs. 13/15 normalizer over a
dense ``(K, N)`` matrix.

The weighted median follows the paper's definition (Eq. 16, after
[Cormen et al., Ch. 9]): it is the claimed value ``v_j`` such that the
weight strictly below it is ``< W/2`` and the weight strictly above it is
``<= W/2``, where ``W`` is the total weight.  Equivalently: the first value,
in sorted order, at which the cumulative weight reaches ``W/2``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _reaches_half(mass: float, total: float) -> bool:
    """Eq. 16's crossing test: has cumulative weight reached ``W/2``?

    The scalar median routes every crossing decision through this one
    comparison on :func:`math.fsum`-exact masses, so ties at exactly
    ``W/2`` resolve identically regardless of summation order.
    """
    return 2.0 * mass >= total


def weighted_median(values: Sequence[float],
                    weights: Sequence[float]) -> float:
    """Scalar weighted median per Eq. 16 of the paper.

    ``values`` and ``weights`` must be equal-length and non-empty with
    non-negative weights; zero-total weight falls back to the unweighted
    median of the values.  Cumulative masses are evaluated with
    :func:`math.fsum` (exactly rounded), so boundary ties at ``W/2`` do
    not depend on summation order.
    """
    vals = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    if vals.shape != wts.shape or vals.ndim != 1:
        raise ValueError(
            f"values {vals.shape} and weights {wts.shape} must be equal-"
            f"length 1-d arrays"
        )
    if vals.size == 0:
        raise ValueError("weighted median of empty set")
    if (wts < 0).any():
        raise ValueError("weights must be non-negative")
    total = math.fsum(wts)
    if total <= 0:
        wts = np.ones_like(wts)
        total = float(vals.size)
    order = np.argsort(vals, kind="stable")
    sorted_wts = wts[order]
    # First sorted position where cumulative weight reaches half the total:
    # below it the mass is < W/2, above it the mass is <= W/2 (Eq. 16).
    # The prefix mass is monotone in the position, so binary-search it.
    lo, hi = 0, vals.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _reaches_half(math.fsum(sorted_wts[:mid + 1]), total):
            hi = mid
        else:
            lo = mid + 1
    return float(vals[order][lo])


def weighted_mean(values: Sequence[float],
                  weights: Sequence[float]) -> float:
    """Scalar weighted mean (truth update of Eq. 14)."""
    vals = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("weighted mean of empty set")
    if (wts < 0).any():
        raise ValueError("weights must be non-negative")
    total = wts.sum()
    if total <= 0:
        return float(vals.mean())
    return float((vals * wts).sum() / total)


def weighted_mode(values: Sequence[int], weights: Sequence[float],
                  n_categories: int | None = None) -> int:
    """Scalar weighted vote (Eq. 9): the code with the largest weight sum.

    Ties break toward the smallest code, which keeps results deterministic
    across runs and platforms.
    """
    vals = np.asarray(values, dtype=np.int64)
    wts = np.asarray(weights, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("weighted mode of empty set")
    if (vals < 0).any():
        raise ValueError("category codes must be non-negative")
    size = int(vals.max()) + 1 if n_categories is None else n_categories
    scores = np.zeros(size, dtype=np.float64)
    np.add.at(scores, vals, wts)
    return int(scores.argmax())


def column_std(values: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Per-column standard deviation across observed sources.

    This is the ``std(v^1_im, ..., v^K_im)`` normalizer of Eqs. 13/15.
    Columns where the std would be zero (single observation, or unanimous
    sources) fall back to 1.0 so the loss degrades to an unnormalized
    distance instead of dividing by zero.
    """
    values = np.asarray(values, dtype=np.float64)
    observed = ~np.isnan(values)
    counts = observed.sum(axis=0)
    # Hand-rolled nan-std: np.nanstd warns on all-NaN columns, which are
    # legitimate here (entries nobody observed fall back to std 1.0).
    filled = np.where(observed, values, 0.0)
    safe_counts = np.maximum(counts, 1)
    mean = filled.sum(axis=0) / safe_counts
    variance = (
        np.where(observed, (values - mean[None, :]) ** 2, 0.0).sum(axis=0)
        / safe_counts
    )
    std = np.sqrt(variance)
    return np.where((std <= floor) | (counts < 2), 1.0, std)
