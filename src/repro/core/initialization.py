"""Truth initialization strategies (Section 2.5, "Initialization").

The paper initializes the truths with Voting/Averaging-style estimates and
reports that this is "typically a good start".  All strategies here return
one initial truth column per property; the solver then alternates weight
and truth steps from that point.

Strategies run on the property's *claim view* (see
:mod:`repro.core.kernels`), so they accept dense and sparse datasets
interchangeably and both execution backends initialize bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..data.encoding import MISSING_CODE
from .kernels import (
    segment_weighted_mean,
    segment_weighted_median,
    segment_weighted_vote,
)


def initialize_vote_median(dataset) -> list[np.ndarray]:
    """Majority vote for categorical, median for continuous (paper default)."""
    columns: list[np.ndarray] = []
    for prop in dataset.properties:
        view = prop.claim_view()
        uniform = np.ones(view.n_claims, dtype=np.float64)
        if prop.schema.is_continuous:
            columns.append(segment_weighted_median(
                view.values, uniform, view.indptr,
                group_of_claim=view.object_idx,
                order=view.median_order(),
            ))
        else:
            columns.append(segment_weighted_vote(
                view.values, uniform, view.indptr,
                n_categories=len(prop.codec),
                group_of_claim=view.object_idx,
            ))
    return columns


def initialize_vote_mean(dataset) -> list[np.ndarray]:
    """Majority vote for categorical, mean for continuous (Averaging)."""
    columns: list[np.ndarray] = []
    for prop in dataset.properties:
        view = prop.claim_view()
        uniform = np.ones(view.n_claims, dtype=np.float64)
        if prop.schema.is_continuous:
            columns.append(segment_weighted_mean(
                view.values, uniform, view.indptr,
                group_of_claim=view.object_idx,
            ))
        else:
            columns.append(segment_weighted_vote(
                view.values, uniform, view.indptr,
                n_categories=len(prop.codec),
                group_of_claim=view.object_idx,
            ))
    return columns


def initialize_random(dataset, rng: np.random.Generator) -> list[np.ndarray]:
    """Pick a random claimed value per entry (the ablation's weak start).

    Sampling from *claimed* values (rather than arbitrary points) keeps the
    initialization in the feasible region every loss can score.  Noise is
    drawn per claim in canonical claim order, so both backends consume the
    generator identically.
    """
    columns: list[np.ndarray] = []
    for prop in dataset.properties:
        view = prop.claim_view()
        n = view.n_objects
        noise = rng.random(view.n_claims)
        # Claim with the largest noise in each group wins: sort by
        # (group, noise) and take the last claim of each group segment.
        order = np.lexsort((noise, view.object_idx))
        sizes = np.diff(view.indptr)
        nonempty = sizes > 0
        chosen = order[view.indptr[1:][nonempty] - 1]
        if prop.schema.uses_codec:
            column = np.full(n, MISSING_CODE, dtype=np.int32)
        else:
            column = np.full(n, np.nan, dtype=np.float64)
        column[nonempty] = view.values[chosen]
        columns.append(column)
    return columns


def initializer_by_name(name: str):
    """Look up an initializer; random initializers need an ``rng`` kwarg."""
    strategies = {
        "vote_median": initialize_vote_median,
        "vote_mean": initialize_vote_mean,
        "random": initialize_random,
    }
    try:
        return strategies[name]
    except KeyError:
        raise KeyError(
            f"unknown initializer {name!r}; "
            f"registered: {sorted(strategies)}"
        ) from None
