"""Source-reliability measurement and comparison (Fig. 1 / Fig. 4).

The paper defines a source's *true* reliability from ground truth as "the
probability that the source makes correct statements on categorical data,
and the chance that the source makes statements close to the truth on
continuous data", combined into one score per source.  Estimated scores
from different methods are min-max normalized into [0, 1] to be comparable,
and methods that output *unreliability* (GTM's variances, 3-Estimates'
error rates) are inverted first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ..data.encoding import MISSING_CODE
from ..data.schema import PropertyKind
from ..data.table import MultiSourceDataset, TruthTable
from ..core.kernels import column_std


def true_source_reliability(dataset: MultiSourceDataset,
                            truth: TruthTable) -> np.ndarray:
    """Ground-truth reliability score per source, in [0, 1].

    Categorical part: the source's accuracy on labeled entries it claims.
    Continuous part: ``exp(-mean normalized absolute error)`` — a monotone
    map of "how close to the truth" into [0, 1].  The two parts are
    averaged per source over the properties where the source has evaluable
    claims.
    """
    if truth.object_ids != dataset.object_ids:
        raise ValueError("truth table misaligned with dataset")
    k = dataset.n_sources
    score_sum = np.zeros(k)
    score_cnt = np.zeros(k)
    for m, prop in enumerate(dataset.schema):
        obs = dataset.properties[m]
        truth_col = truth.columns[m]
        if prop.uses_codec:
            labeled = truth_col != MISSING_CODE
            observed = obs.observed_mask() & labeled[None, :]
            counts = observed.sum(axis=1)
            correct = (
                (obs.values == truth_col[None, :]) & observed
            ).sum(axis=1)
            has = counts > 0
            score_sum[has] += correct[has] / counts[has]
            score_cnt[has] += 1
        else:
            truth_vals = truth_col.astype(np.float64)
            labeled = ~np.isnan(truth_vals)
            observed = obs.observed_mask() & labeled[None, :]
            std = column_std(obs.values)
            with np.errstate(invalid="ignore"):
                nad = np.abs(obs.values - truth_vals[None, :]) / std[None, :]
            nad = np.where(observed, nad, np.nan)
            counts = observed.sum(axis=1)
            has = counts > 0
            with np.errstate(invalid="ignore"):
                mean_nad = np.nanmean(np.where(observed, nad, np.nan), axis=1)
            score_sum[has] += np.exp(-mean_nad[has])
            score_cnt[has] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = score_sum / score_cnt
    return np.where(score_cnt > 0, scores, 0.0)


def normalize_scores(scores: Sequence[float],
                     invert: bool = False) -> np.ndarray:
    """Min-max normalize reliability scores into [0, 1].

    ``invert=True`` converts unreliability scores (GTM, 3-Estimates) into
    reliability before normalizing, as the paper does for Fig. 1.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if invert:
        arr = -arr
    span = arr.max() - arr.min()
    if span <= 0:
        return np.full_like(arr, 0.5)
    return (arr - arr.min()) / span


def pearson_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation coefficient (used in Table 6 and Fig. 1 checks)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if x.size < 2:
        raise ValueError("need at least two points")
    sx = x.std()
    sy = y.std()
    if sx <= 0 or sy <= 0:
        raise ValueError("correlation undefined for constant sequences")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def rank_agreement(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation between two reliability score vectors.

    Fig. 1's qualitative claim is about *ordering* sources correctly, so
    tests assert on rank agreement rather than raw values.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    ranks_x = np.argsort(np.argsort(x)).astype(np.float64)
    ranks_y = np.argsort(np.argsort(y)).astype(np.float64)
    return pearson_correlation(ranks_x, ranks_y)


@dataclass(frozen=True)
class ReliabilityComparison:
    """Estimated-vs-true reliability for one method (one Fig. 1 series)."""

    method: str
    source_ids: tuple[Hashable, ...]
    true_scores: np.ndarray
    estimated_scores: np.ndarray

    @property
    def pearson(self) -> float:
        return pearson_correlation(self.true_scores, self.estimated_scores)

    @property
    def spearman(self) -> float:
        return rank_agreement(self.true_scores, self.estimated_scores)


def compare_reliability(
    method: str,
    dataset: MultiSourceDataset,
    truth: TruthTable,
    estimated: Sequence[float],
    invert: bool = False,
) -> ReliabilityComparison:
    """Build a normalized comparison of estimated vs true reliability."""
    true_scores = normalize_scores(true_source_reliability(dataset, truth))
    est_scores = normalize_scores(estimated, invert=invert)
    return ReliabilityComparison(
        method=method,
        source_ids=dataset.source_ids,
        true_scores=true_scores,
        estimated_scores=est_scores,
    )
