"""Scalar and scatter-add references for :mod:`repro.core.kernels`.

The truth step of CRH (Eq. 3) reduces to a weighted statistic per entry:
weighted vote for the 0-1 loss, weighted mean for the squared losses,
weighted median for the absolute loss.  The solver computes them over
whole claim arrays with the segment kernels; this module keeps a
readable one-entry-at-a-time version of each, which the kernel tests use
as the oracle.

The weighted median follows the paper's definition (Eq. 16, after
[Cormen et al., Ch. 9]): it is the claimed value ``v_j`` such that the
weight strictly below it is ``< W/2`` and the weight strictly above it is
``<= W/2``, where ``W`` is the total weight.  Equivalently: the first value,
in sorted order, at which the cumulative weight reaches ``W/2``.

:func:`scatter_add_scores` builds the categorical kernels' per-cell
scores the direct way, an unbuffered ``np.add.at`` into a code-major
``(L, G)`` matrix; the kernels' flat ``bincount`` accumulation must
reproduce it bit for bit.
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


def scatter_add_scores(codes: np.ndarray, weights: np.ndarray,
                       group_of_claim: np.ndarray, n_categories: int,
                       n_groups: int) -> np.ndarray:
    """Code-major ``(L, G)`` per-cell weight sums via ``np.add.at``."""
    scores = np.zeros((n_categories, n_groups), dtype=np.float64)
    np.add.at(scores, (codes, group_of_claim), weights)
    return scores
