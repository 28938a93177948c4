"""Pure, stateless execution kernels shared by all three CRH engines.

Every engine — the sequential solver, the MapReduce simulation, and
streaming I-CRH — reduces to the same per-property math.  This module is
the single implementation of that math, expressed over the *claim view*
``(values, source_idx, object_idx, indptr)`` of
:class:`~repro.data.claims_matrix.ClaimView`: flat parallel arrays of
claims grouped into contiguous CSR segments.

Kernel -> paper equation map:

======================================  ==================================
kernel                                  paper equation
======================================  ==================================
:func:`segment_weighted_vote`           Eq. 9 (weighted voting)
:func:`segment_label_distribution`      Eq. 12 (probability truth update)
:func:`segment_weighted_mean`           Eq. 14 (weighted mean)
:func:`segment_weighted_median`         Eq. 16 (weighted median,
                                        half-mass rule)
:func:`segment_weighted_medoid`         Eq. 3 restricted to claimed
                                        strings (text medoid)
:func:`segment_std`                     std normalizer of Eqs. 13/15
:func:`column_std`                      the same over a dense ``(K, N)``
                                        matrix
:func:`segment_sum`                     plain per-group sums (GTM
                                        posterior statistics, Eq. 2/5
                                        style reductions)
:func:`segment_huber_irls`              Huber truth step (IRLS on the
                                        Eq. 14/16 interpolation)
:func:`zero_one_claim_deviations`       Eq. 8
:func:`probability_claim_deviations`    Eq. 11 (closed form)
:func:`squared_claim_deviations`        Eq. 13
:func:`absolute_claim_deviations`       Eq. 15
:func:`huber_claim_deviations`          Huber deviation (robust loss)
:func:`bregman_claim_deviations`        Bregman divergence deviations
                                        (Section 2.5's [29] family)
:func:`accumulate_source_deviations`    per-source sums feeding Eq. 2/5
======================================  ==================================

All kernels are deterministic and order-stable: groups with a tied vote
pick the smallest code, weighted medians follow the half-mass rule
(first sorted value whose cumulative weight reaches ``W/2 - 1e-12``),
and zero-total-weight groups fall back to uniform weights — matching the
one-entry-at-a-time scalar oracles the kernel tests keep.  Because both
execution backends feed kernels the identical canonically-ordered claim
view, dense and sparse runs are bit-identical.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data.encoding import MISSING_CODE


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum ``values`` within each CSR segment; empty segments sum to 0.

    ``np.add.reduceat`` alone mishandles empty segments (it returns
    ``values[i]`` when two boundaries coincide and raises at the end),
    so the reduction runs over the non-empty starts only — consecutive
    non-empty starts bound their segments correctly because intervening
    empty segments contribute no rows.
    """
    sizes = np.diff(indptr)
    sums = np.zeros(sizes.shape[0], dtype=np.float64)
    nonempty = np.flatnonzero(sizes > 0)
    if nonempty.size:
        sums[nonempty] = np.add.reduceat(
            np.asarray(values, dtype=np.float64), indptr[nonempty]
        )
    return sums


def _group_of_claim(indptr: np.ndarray) -> np.ndarray:
    """Group index of every claim, derived from the CSR row pointer."""
    sizes = np.diff(indptr)
    return np.repeat(np.arange(sizes.shape[0]), sizes)


def _effective_weights(
    claim_weights: np.ndarray, indptr: np.ndarray,
    group_of_claim: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-claim weights with the zero-total-group fallback applied.

    Groups whose claims all carry zero weight fall back to uniform
    weights (each claim weighs 1), mirroring the scalar oracles; returns
    ``(effective_claim_weights, per_group_totals)``.
    """
    claim_weights = np.asarray(claim_weights, dtype=np.float64)
    totals = _segment_sums(claim_weights, indptr)
    sizes = np.diff(indptr)
    zero = (totals <= 0) & (sizes > 0)
    if zero.any():
        claim_weights = np.where(zero[group_of_claim], 1.0, claim_weights)
        totals = np.where(zero, sizes.astype(np.float64), totals)
    return claim_weights, totals


def effective_claim_weights(
    claim_weights: np.ndarray, indptr: np.ndarray,
    group_of_claim: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Public form of the per-claim effective-weight computation.

    Returns ``(effective_claim_weights, per_group_totals)`` with the
    zero-total-group uniform fallback applied — the pair every
    truth-step kernel derives internally.  The Huber loss runs two
    kernels over the same claim weights (median warm start + IRLS), so
    it computes the pair once and passes it through their
    ``effective=`` parameter, skipping the second derivation without
    changing a single bit.
    """
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    return _effective_weights(claim_weights, indptr, group_of_claim)


def segment_weighted_mean(values: np.ndarray, claim_weights: np.ndarray,
                          indptr: np.ndarray,
                          group_of_claim: np.ndarray | None = None,
                          ) -> np.ndarray:
    """Weighted mean of every claim group (Eq. 14); ``NaN`` when empty."""
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    weights, totals = _effective_weights(claim_weights, indptr,
                                         group_of_claim)
    sums = _segment_sums(
        np.asarray(values, dtype=np.float64) * weights, indptr
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        result = sums / totals
    return np.where(totals > 0, result, np.nan)


def segment_weighted_median(values: np.ndarray, claim_weights: np.ndarray,
                            indptr: np.ndarray,
                            group_of_claim: np.ndarray | None = None,
                            order: np.ndarray | None = None,
                            effective: tuple[np.ndarray, np.ndarray]
                            | None = None) -> np.ndarray:
    """Weighted median of every claim group (Eq. 16); ``NaN`` when empty.

    Implements the paper's half-mass rule: sort each group's claims by
    value (stable, so equal values keep source order), accumulate
    weights, and pick the first claim whose cumulative weight reaches
    ``W/2 - 1e-12``.

    ``order`` optionally supplies the ``np.lexsort((values,
    group_of_claim))`` permutation for exactly these arrays (claim views
    cache one, :meth:`~repro.data.claims_matrix.ClaimView.median_order`),
    skipping the dominant sort; ``effective`` optionally supplies the
    :func:`effective_claim_weights` pair so a caller running several
    kernels over one weighting (the Huber loss) doesn't recompute it.
    Both are pure reuse — the result is bit-identical with or without
    them.  Every other row (sorted weights, segment starts, search
    bounds) is allocated fresh per call, so the kernel holds no state.

    Every prefix mass is evaluated *segment-locally* (a reduction over
    the group's own rows only, never a global running sum), so the
    result for a group is a pure function of that group's claims.  This
    is what lets the process backend evaluate shards of the claim array
    independently and still match the single-array backends bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    weights, totals = (effective if effective is not None
                       else _effective_weights(claim_weights, indptr,
                                               group_of_claim))
    if order is None:
        order = np.lexsort((values, group_of_claim))
    # One trailing zero lets reduceat accept a prefix ending at the
    # array's full length without changing any prefix sum.
    sorted_weights = np.empty(values.shape[0] + 1, dtype=np.float64)
    np.take(weights, order, out=sorted_weights[:-1])
    sorted_weights[-1] = 0.0

    starts = np.asarray(indptr[:-1], dtype=np.int64)
    sizes = np.diff(indptr).astype(np.int64)
    occupied = np.flatnonzero(sizes > 0)
    # totals / 2 is an exact binary scaling.
    threshold = totals / 2.0 - 1e-12
    # Per-group binary search over the claim rank: find the first sorted
    # row whose segment-local prefix mass reaches the half-mass
    # threshold.  Prefix masses are non-decreasing in the rank (weights
    # are non-negative and float addition of non-negative terms is
    # monotone), and the full-group prefix always reaches the threshold,
    # so the search converges to the first crossing.
    lo = np.zeros(sizes.shape[0], dtype=np.int64)
    hi = np.maximum(sizes - 1, 0)
    while True:
        open_ = occupied[lo[occupied] < hi[occupied]]
        if open_.size == 0:
            break
        mid = (lo[open_] + hi[open_]) >> 1
        bounds = np.empty(2 * open_.size, dtype=np.int64)
        bounds[0::2] = starts[open_]
        bounds[1::2] = starts[open_] + mid + 1
        prefix_mass = np.add.reduceat(sorted_weights, bounds)[0::2]
        reached = prefix_mass >= threshold[open_]
        hi[open_[reached]] = mid[reached]
        lo[open_[~reached]] = mid[~reached] + 1
    result = np.full(sizes.shape[0], np.nan)
    result[occupied] = values[order[starts[occupied] + lo[occupied]]]
    return result


def _cell_scores(rows: np.ndarray, cols: np.ndarray, n_rows: int,
                 n_cols: int, weights: np.ndarray) -> np.ndarray:
    """``(n_rows, n_cols)`` matrix of claim weights summed per cell.

    One flat ``np.bincount`` over the cell ids ``rows * n_cols + cols``
    (the callers' codes are range-checked when their property is built,
    so every id lands in the matrix).  ``bincount`` adds each cell's
    weights in claim order starting from 0.0, so a cell's score is the
    same left-to-right float sum an unbuffered scatter-add would give.
    """
    cells = np.asarray(rows, dtype=np.int64) * n_cols
    cells += cols
    return np.bincount(cells, weights=weights,
                       minlength=n_rows * n_cols).reshape(n_rows, n_cols)


#: Above this many ``n_categories * n_groups`` score cells the vote
#: kernel switches from the dense score matrix to the sparse
#: claimed-cells path (same winners; see the kernel docstring).
VOTE_DENSE_SCORE_CELLS = 4_000_000


def segment_weighted_vote(codes: np.ndarray, claim_weights: np.ndarray,
                          indptr: np.ndarray, n_categories: int,
                          group_of_claim: np.ndarray | None = None,
                          ) -> np.ndarray:
    """Weighted vote per claim group (Eq. 9).

    Returns an ``int32`` vector of winning codes, ``MISSING_CODE`` for
    empty groups (every group, when the codec has no category yet);
    ties break toward the smallest code.

    Scores are summed per ``(group, code)`` cell into a group-major
    ``(n_groups, n_categories)`` matrix (:func:`_cell_scores`), whose
    row-wise ``argmax`` takes the first maximum, i.e. the smallest code.
    Past :data:`VOTE_DENSE_SCORE_CELLS` score cells that matrix is
    replaced by a reduction over the *claimed* cells only, keeping peak
    memory proportional to the number of claims instead of the category
    vocabulary.  The winners are identical: both paths sum each cell in
    claim order, effective weights are non-negative (the zero-total
    fallback makes every occupied group's total positive), so an
    unclaimed category's implicit 0.0 score can never beat the claimed
    maximum, and the sorted-cell scan reproduces ``argmax``'s
    tie-to-smallest-code rule.
    """
    codes = np.asarray(codes)
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    weights, _ = _effective_weights(claim_weights, indptr, group_of_claim)
    n_groups = indptr.shape[0] - 1
    if n_categories == 0:
        return np.full(n_groups, MISSING_CODE, dtype=np.int32)
    if n_categories * n_groups > VOTE_DENSE_SCORE_CELLS:
        return _sparse_weighted_vote(codes, weights, group_of_claim,
                                     n_groups, n_categories)
    scores = _cell_scores(group_of_claim, codes, n_groups, n_categories,
                          weights)
    winners = scores.argmax(axis=1).astype(np.int32)
    winners[np.diff(indptr) == 0] = MISSING_CODE
    return winners


def _sparse_weighted_vote(codes: np.ndarray, weights: np.ndarray,
                          group_of_claim: np.ndarray, n_groups: int,
                          n_categories: int) -> np.ndarray:
    """Vote winners via the claimed ``(group, code)`` cells only.

    Memory is O(claims): flatten each claim to its cell id, sum weights
    per unique cell (``np.bincount`` over the inverse index accumulates
    in claim order, the same sums as :func:`_cell_scores`), then take
    each occupied group's first maximal cell — cells sort group-major
    and code-ascending, so the minimum maximal cell is ``argmax``'s
    smallest-code tie-break.
    """
    winners = np.full(n_groups, MISSING_CODE, dtype=np.int32)
    if codes.shape[0] == 0:
        return winners
    cells = n_categories * group_of_claim.astype(np.int64) + codes
    unique_cells, inverse = np.unique(cells, return_inverse=True)
    cell_scores = np.bincount(inverse, weights=weights,
                              minlength=unique_cells.shape[0])
    group_of_cell = unique_cells // n_categories
    run_starts = np.flatnonzero(np.diff(group_of_cell, prepend=-1))
    run_sizes = np.diff(np.append(run_starts, group_of_cell.shape[0]))
    maxima = np.maximum.reduceat(cell_scores, run_starts)
    is_max = cell_scores == np.repeat(maxima, run_sizes)
    candidates = np.where(is_max, unique_cells, np.iinfo(np.int64).max)
    winner_cells = np.minimum.reduceat(candidates, run_starts)
    winners[group_of_cell[run_starts]] = \
        (winner_cells % n_categories).astype(np.int32)
    return winners


def segment_label_distribution(
    codes: np.ndarray, claim_weights: np.ndarray, indptr: np.ndarray,
    n_categories: int, group_of_claim: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group label distribution (Eq. 12) plus its hard arg-max.

    Returns ``(distribution, column)`` where ``distribution`` is an
    ``(L, G)`` matrix of per-group category probabilities (all-zero for
    empty groups) and ``column`` the ``int32`` arg-max codes
    (``MISSING_CODE`` for empty groups).  The scores are the vote's
    per-cell sums (:func:`_cell_scores`), laid out code-major.
    """
    codes = np.asarray(codes)
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    weights, totals = _effective_weights(claim_weights, indptr,
                                         group_of_claim)
    n_groups = indptr.shape[0] - 1
    scores = _cell_scores(codes, group_of_claim, n_categories, n_groups,
                          weights)
    with np.errstate(invalid="ignore", divide="ignore"):
        distribution = scores / totals[None, :]
    empty = totals <= 0
    distribution[:, empty] = 0.0
    if n_categories == 0:
        return distribution, np.full(n_groups, MISSING_CODE, dtype=np.int32)
    column = distribution.argmax(axis=0).astype(np.int32)
    column[empty] = MISSING_CODE
    return distribution, column


def segment_std(values: np.ndarray, indptr: np.ndarray,
                group_of_claim: np.ndarray | None = None,
                floor: float = 1e-12) -> np.ndarray:
    """Per-group standard deviation — the normalizer of Eqs. 13/15.

    Two-pass (mean then centered squares) like :func:`column_std`;
    groups with fewer than two claims, or a std at/below ``floor``, fall
    back to 1.0 so the losses degrade to unnormalized distances instead
    of dividing by zero.
    """
    values = np.asarray(values, dtype=np.float64)
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    counts = np.diff(indptr)
    safe_counts = np.maximum(counts, 1)
    mean = _segment_sums(values, indptr) / safe_counts
    centered_sq = (values - mean[group_of_claim]) ** 2
    variance = _segment_sums(centered_sq, indptr) / safe_counts
    std = np.sqrt(variance)
    return np.where((std <= floor) | (counts < 2), 1.0, std)


def column_std(values: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Per-column std of a dense ``(K, N)`` matrix across observed
    (non-``NaN``) sources — :func:`segment_std` for dense tables, with
    the same two passes and the same fallback to 1.0.
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


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Plain per-group sums over a CSR segmentation; empty groups sum to 0.

    The unweighted reduction primitive behind the GTM baseline's
    posterior statistics (and any per-entry accumulation expressed over
    the claim view).  Segment-local like every kernel here, so sharded
    and chunked execution reproduce the single-array result bit for bit.
    """
    return _segment_sums(values, indptr)


def segment_huber_irls(
    values: np.ndarray, claim_weights: np.ndarray, indptr: np.ndarray,
    stds: np.ndarray, initial: np.ndarray, *, delta: float,
    iterations: int, tol: float,
    group_of_claim: np.ndarray | None = None,
    effective: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Huber-loss truth step: per-group IRLS from a warm start.

    ``effective`` optionally supplies the precomputed
    :func:`effective_claim_weights` pair (pure reuse, bit-identical).

    Iteratively reweighted least squares for the per-entry minimizer of
    the weighted Huber cost: each round multiplies the claim weights by
    the Huber influence factor ``min(1, delta / |r|)`` of the
    standardized residual ``r`` and re-solves the weighted mean.
    ``initial`` (typically the weighted median) seeds the residuals.

    Convergence is evaluated *per group*: a group freezes permanently
    once its own update moves less than ``tol``, independent of every
    other group.  A group's trajectory is therefore a pure function of
    its own claims, which keeps sharded (process) and chunked (mmap)
    execution bit-identical to the single-array backends.
    """
    values = np.asarray(values, dtype=np.float64)
    if group_of_claim is None:
        group_of_claim = _group_of_claim(indptr)
    weights, _ = (effective if effective is not None
                  else _effective_weights(claim_weights, indptr,
                                          group_of_claim))
    stds = np.asarray(stds, dtype=np.float64)
    truth = np.asarray(initial, dtype=np.float64).copy()
    active = np.diff(indptr) > 0
    claim_std = stds[group_of_claim]
    for _ in range(iterations):
        if not active.any():
            break
        residual = (values - truth[group_of_claim]) / claim_std
        magnitude = np.abs(residual)
        with np.errstate(invalid="ignore", divide="ignore"):
            irls = np.where(magnitude <= delta, 1.0, delta / magnitude)
        irls = np.where(np.isfinite(irls), irls, 1.0)
        reweighted = weights * irls
        totals = _segment_sums(reweighted, indptr)
        sums = _segment_sums(values * reweighted, indptr)
        with np.errstate(invalid="ignore", divide="ignore"):
            update = np.where(totals > 0, sums / totals, truth)
        moved = np.abs(update - truth)
        truth = np.where(active, update, truth)
        # Freeze groups whose own update settled; NaN deltas (all-NaN
        # groups) freeze too — further rounds cannot change them.
        active = active & ~((moved < tol) | ~np.isfinite(moved))
    return truth


def segment_weighted_medoid(
    codes: np.ndarray, claim_weights: np.ndarray, indptr: np.ndarray,
    pair_distance: Callable[[int, int], float],
) -> np.ndarray:
    """Weighted medoid per claim group — the text truth update.

    Picks, per group, the claimed code minimizing the weight-summed
    ``pair_distance`` to the group's claims (Eq. 3 restricted to claimed
    values).  Ties break toward the first candidate in sorted-code
    order.  Returns ``int32`` codes with ``MISSING_CODE`` for empty
    groups.
    """
    codes = np.asarray(codes)
    claim_weights = np.asarray(claim_weights, dtype=np.float64)
    n_groups = indptr.shape[0] - 1
    column = np.full(n_groups, MISSING_CODE, dtype=np.int32)
    for g in range(n_groups):
        lo, hi = indptr[g], indptr[g + 1]
        if lo == hi:
            continue
        entry_codes = codes[lo:hi]
        entry_weights = claim_weights[lo:hi]
        if entry_weights.sum() <= 0:
            entry_weights = np.ones_like(entry_weights)
        candidates = np.unique(entry_codes)
        if candidates.size == 1:
            column[g] = candidates[0]
            continue
        best_code = int(candidates[0])
        best_cost = np.inf
        for candidate in candidates:
            cost = sum(
                w * pair_distance(int(candidate), int(code))
                for code, w in zip(entry_codes, entry_weights)
            )
            if cost < best_cost:
                best_cost = cost
                best_code = int(candidate)
        column[g] = best_code
    return column


# ----------------------------------------------------------------------
# per-claim deviations (the d_m terms of Eq. 2/5)
# ----------------------------------------------------------------------

def zero_one_claim_deviations(codes: np.ndarray, truth_codes: np.ndarray,
                              object_idx: np.ndarray) -> np.ndarray:
    """0-1 deviation of every claim from its entry's truth (Eq. 8)."""
    truths = np.asarray(truth_codes)[object_idx]
    mismatch = np.asarray(codes) != truths
    return mismatch.astype(np.float64)


def probability_claim_deviations(codes: np.ndarray,
                                 distribution: np.ndarray,
                                 object_idx: np.ndarray) -> np.ndarray:
    """Squared one-hot deviation of every claim (Eq. 11, closed form).

    ``||p - e_c||^2 = sum_l p_l^2 - 2 p_c + 1`` evaluated against the
    entry's probability column of ``distribution`` (an ``(L, G)``
    matrix) — no one-hot vectors are materialized.
    """
    squared_norm = (np.asarray(distribution) ** 2).sum(axis=0)
    p_claimed = distribution[np.asarray(codes), object_idx]
    out = np.empty(object_idx.shape[0], dtype=np.float64)
    np.take(squared_norm, object_idx, out=out)
    out -= 2.0 * p_claimed
    out += 1.0
    return out


def squared_claim_deviations(values: np.ndarray, truths: np.ndarray,
                             stds: np.ndarray,
                             object_idx: np.ndarray) -> np.ndarray:
    """Std-normalized squared deviation of every claim (Eq. 13)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(values.shape[0], dtype=np.float64)
    np.take(np.asarray(truths, dtype=np.float64), object_idx, out=out)
    np.subtract(values, out, out=out)
    np.square(out, out=out)
    out /= np.asarray(stds)[object_idx]
    return out


def absolute_claim_deviations(values: np.ndarray, truths: np.ndarray,
                              stds: np.ndarray,
                              object_idx: np.ndarray) -> np.ndarray:
    """Std-normalized absolute deviation of every claim (Eq. 15)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(values.shape[0], dtype=np.float64)
    np.take(np.asarray(truths, dtype=np.float64), object_idx, out=out)
    np.subtract(values, out, out=out)
    np.abs(out, out=out)
    out /= np.asarray(stds)[object_idx]
    return out


def huber_claim_deviations(values: np.ndarray, truths: np.ndarray,
                           stds: np.ndarray, object_idx: np.ndarray,
                           delta: float) -> np.ndarray:
    """Huber deviation of every claim from its entry's truth.

    The standardized residual ``r = (v - x*) / std`` scored by the Huber
    function: quadratic (``r^2 / 2``) inside ``[-delta, delta]``, linear
    (``delta (|r| - delta / 2)``) outside — the robust-loss counterpart
    of :func:`squared_claim_deviations` / :func:`absolute_claim_deviations`.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(values.shape[0], dtype=np.float64)
    np.take(np.asarray(truths, dtype=np.float64), object_idx, out=out)
    np.subtract(values, out, out=out)
    out /= np.asarray(stds)[object_idx]
    magnitude = np.abs(out)
    linear = magnitude <= delta
    np.square(out, out=out)
    out *= 0.5
    np.copyto(out, delta * (magnitude - 0.5 * delta), where=~linear)
    return out


def bregman_claim_deviations(values: np.ndarray, truths: np.ndarray,
                             indptr: np.ndarray, object_idx: np.ndarray,
                             divergence) -> np.ndarray:
    """Scale-normalized Bregman divergence of every claim (Section 2.5).

    ``divergence(values, truths)`` is one generator's vectorized
    ``d_phi(x, y)`` (see :data:`repro.core.bregman.GENERATORS`); the raw
    divergences are divided by their per-entry mean so entries with
    large divergences don't dominate the weight step — mirroring the
    std normalization of Eqs. 13/15.  The per-entry scale is a
    *segment-local* reduction (mean over the entry's own claims, with
    non-positive or non-finite scales falling back to 1.0), so sharded
    and chunked execution stay bit-identical — provided shards never
    split an entry's claim segment, which both parallel backends
    guarantee.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = divergence(values, np.asarray(truths)[object_idx])
    finite = np.isfinite(raw)
    counts = _segment_sums(finite.astype(np.float64), indptr)
    sums = _segment_sums(np.where(finite, raw, 0.0), indptr)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = sums / counts
    scale = np.where((counts > 0) & np.isfinite(scale) & (scale > 1e-12),
                     scale, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return raw / scale[object_idx]


def accumulate_source_deviations(
    claim_deviations: np.ndarray, source_idx: np.ndarray, n_sources: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate per-claim deviations into per-source sums and counts.

    The ``(sum, count)`` pair feeds the weight step (Eq. 2/5) and the
    count normalization of Section 2.5.  Claims with a non-finite
    deviation (their entry's truth is still unset) contribute nothing.
    """
    claim_deviations = np.asarray(claim_deviations, dtype=np.float64)
    finite = np.isfinite(claim_deviations)
    if not finite.all():
        source_idx = np.asarray(source_idx)[finite]
        claim_deviations = claim_deviations[finite]
    totals = np.bincount(source_idx, weights=claim_deviations,
                         minlength=n_sources).astype(np.float64)
    counts = np.bincount(source_idx,
                         minlength=n_sources).astype(np.float64)
    return totals, counts


def scatter_claims_to_matrix(view, claim_values: np.ndarray,
                             fill=np.nan) -> np.ndarray:
    """Scatter per-claim values back into a dense ``(K, N)`` matrix.

    The compatibility bridge for consumers of the dense
    ``Loss.deviations`` API (fine-grained weights, CATD): unclaimed
    cells get ``fill`` (``NaN`` by default).
    """
    matrix = np.full((view.n_sources, view.n_objects), fill,
                     dtype=np.float64)
    matrix[view.source_idx, view.object_idx] = claim_values
    return matrix
