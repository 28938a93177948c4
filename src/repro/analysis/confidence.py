"""Per-entry confidence scores for resolved truths.

Truth discovery outputs a hard decision per entry; downstream consumers
often need to know *how contested* each decision was.  The confidence of
an entry is the share of (reliability-weighted) claim mass supporting the
resolved value:

* codec-valued entries (categorical/text) — the weighted vote share of
  the winning value;
* continuous entries — the weighted share of claims within one claimed
  standard deviation of the resolved value.

A unanimous entry scores 1.0; an entry decided on a knife's edge scores
near ``1 / #values``.  This mirrors the probability vectors of Eqs.
10-12 without forcing the solver to carry full distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ..core.kernels import column_std
from ..data.encoding import MISSING_CODE
from ..data.table import MultiSourceDataset, TruthTable


@dataclass(frozen=True)
class EntryConfidence:
    """Confidence in one resolved entry, with its support breakdown."""

    object_id: Hashable
    property_name: str
    value: object
    confidence: float
    n_claims: int


def entry_confidence(
    dataset: MultiSourceDataset,
    truths: TruthTable,
    weights: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Confidence per entry, as one ``(N,)`` vector per property.

    ``weights`` are the source reliability weights (default: uniform);
    unresolved entries get ``NaN``.
    """
    if truths.object_ids != dataset.object_ids:
        raise ValueError("truth table misaligned with dataset")
    if weights is None:
        weights = np.ones(dataset.n_sources)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (dataset.n_sources,):
        raise ValueError(
            f"weights shape {weights.shape} != (K={dataset.n_sources},)"
        )
    if weights.sum() <= 0:
        weights = np.ones(dataset.n_sources)

    out: dict[str, np.ndarray] = {}
    for m, prop in enumerate(dataset.properties):
        truth_col = truths.columns[m]
        if prop.schema.uses_codec:
            codes = prop.values
            observed = codes != MISSING_CODE
            weight_matrix = np.where(observed, weights[:, None], 0.0)
            totals = weight_matrix.sum(axis=0)
            supporting = np.where(
                observed & (codes == truth_col[None, :].astype(codes.dtype)),
                weights[:, None], 0.0,
            ).sum(axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                confidence = supporting / totals
            confidence = np.where(
                (totals > 0) & (truth_col != MISSING_CODE),
                confidence, np.nan,
            )
        else:
            values = prop.values
            observed = ~np.isnan(values)
            truth_vals = truth_col.astype(np.float64)
            std = column_std(values)
            near = observed & (
                np.abs(values - truth_vals[None, :]) <= std[None, :]
            )
            weight_matrix = np.where(observed, weights[:, None], 0.0)
            totals = weight_matrix.sum(axis=0)
            supporting = np.where(near, weights[:, None], 0.0).sum(axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                confidence = supporting / totals
            confidence = np.where(
                (totals > 0) & ~np.isnan(truth_vals), confidence, np.nan,
            )
        out[prop.schema.name] = confidence
    return out


def least_confident_entries(
    dataset: MultiSourceDataset,
    truths: TruthTable,
    weights: np.ndarray | None = None,
    limit: int = 10,
) -> list[EntryConfidence]:
    """The ``limit`` most contested resolved entries, least confident
    first — the natural audit/labeling queue for a human in the loop."""
    confidences = entry_confidence(dataset, truths, weights)
    ranked: list[EntryConfidence] = []
    for m, prop in enumerate(dataset.properties):
        vector = confidences[prop.schema.name]
        observed_counts = prop.observed_mask().sum(axis=0)
        for i in np.flatnonzero(~np.isnan(vector)):
            ranked.append(EntryConfidence(
                object_id=dataset.object_ids[i],
                property_name=prop.schema.name,
                value=truths.value(dataset.object_ids[i],
                                   prop.schema.name),
                confidence=float(vector[i]),
                n_claims=int(observed_counts[i]),
            ))
    ranked.sort(key=lambda e: e.confidence)
    return ranked[:limit]
