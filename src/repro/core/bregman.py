"""Bregman-divergence losses (the convex family of Section 2.5).

The paper's convergence discussion points at *Bregman divergences* [29]
as the family of convex losses the framework provably converges with,
naming "squared loss, logistic loss, Itakura-Saito distance, squared
Euclidean distance, Mahalanobis distance, KL-divergence and generalized
I-divergence".  This module implements the scalar members relevant to
continuous properties:

========================  ==========================  =================
generator phi(x)          divergence d_phi(x, y)      domain
========================  ==========================  =================
``squared_euclidean``     (x - y)^2 / 2               all reals
``itakura_saito``         x/y - log(x/y) - 1          positive reals
``generalized_i``         x log(x/y) - x + y          positive reals
========================  ==========================  =================

All Bregman divergences share one remarkable property (Banerjee et
al. [29], Proposition 1): the minimizer of the weighted divergence
``sum_k w_k d_phi(x_k, y)`` over the *second* argument is the **weighted
arithmetic mean** of the points, for *every* generator phi.  The truth
step (Eq. 3) is therefore identical across the family — only the
deviations entering the weight step differ — which is exactly why the
framework's convergence proof covers them uniformly.  The property-based
tests in ``tests/test_bregman.py`` verify it numerically per generator.

Observations are normalized by the per-entry std before applying
positive-domain generators would make no sense; instead, positive-domain
divergences validate their domain and are applied to the raw values
(suitable for inherently positive quantities such as volumes, counts and
power spectra — Itakura-Saito's classic use).  The deviation is then
scaled by the entry's mean divergence denominator like Eqs. 13/15 scale
by the std, keeping properties comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.schema import PropertyKind
from . import kernels
from .losses import Loss, TruthState, register_loss


@dataclass(frozen=True)
class BregmanGenerator:
    """A scalar Bregman generator: divergence + domain check."""

    name: str
    #: d_phi(x, y): divergence of observation x from truth y
    divergence: Callable[[np.ndarray, np.ndarray], np.ndarray]
    #: True where values lie in the generator's domain
    in_domain: Callable[[np.ndarray], np.ndarray]
    domain_description: str


def _squared_euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 0.5 * (x - y) ** 2


def _itakura_saito(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ratio = x / y
    return ratio - np.log(ratio) - 1.0


def _generalized_i(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x * np.log(x / y) - x + y


GENERATORS: dict[str, BregmanGenerator] = {
    "squared_euclidean": BregmanGenerator(
        name="squared_euclidean",
        divergence=_squared_euclidean,
        in_domain=lambda x: np.isfinite(x),
        domain_description="all finite reals",
    ),
    "itakura_saito": BregmanGenerator(
        name="itakura_saito",
        divergence=_itakura_saito,
        in_domain=lambda x: np.isfinite(x) & (x > 0),
        domain_description="positive reals",
    ),
    "generalized_i": BregmanGenerator(
        name="generalized_i",
        divergence=_generalized_i,
        in_domain=lambda x: np.isfinite(x) & (x > 0),
        domain_description="positive reals",
    ),
}


class BregmanLoss(Loss):
    """Continuous loss under a chosen Bregman generator.

    The truth update is the weighted mean for every generator (the
    Bregman centroid theorem); ``deviations`` applies the generator's
    divergence, scaled per entry so properties stay comparable.
    Subclasses pin a generator so the loss registry can address each by
    name (``bregman_squared_euclidean``, ``bregman_itakura_saito``,
    ``bregman_generalized_i``).

    The whole family runs on the claim view: the truth step is
    :func:`~repro.core.kernels.segment_weighted_mean` and the deviations
    are :func:`~repro.core.kernels.bregman_claim_deviations`, so every
    member is supported natively on the dense, sparse, process, and mmap
    backends (all three names are in ``WORKER_LOSSES`` and
    ``CHUNK_LOSSES``).  The domain check runs once, in
    :meth:`initial_state`, over the claim values in bounded-size blocks
    so memory-mapped claim arrays are never materialized whole.
    """

    kind = PropertyKind.CONTINUOUS
    generator_name: str = "squared_euclidean"

    def __init__(self) -> None:
        self.generator = GENERATORS[self.generator_name]

    def _check_domain(self, prop) -> None:
        values = prop.claim_view().values
        block = 1 << 20
        for start in range(0, values.shape[0], block):
            chunk = np.asarray(values[start:start + block],
                               dtype=np.float64)
            if not self.generator.in_domain(chunk).all():
                raise ValueError(
                    f"property {prop.schema.name!r} has observations "
                    f"outside the {self.generator.name} domain "
                    f"({self.generator.domain_description})"
                )

    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        """Validate the domain and wrap the initial column."""
        self._check_domain(prop)
        return TruthState(column=np.asarray(init_column, dtype=np.float64))

    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        """Weighted mean — the Bregman centroid for every generator."""
        view = prop.claim_view()
        return TruthState(column=kernels.segment_weighted_mean(
            view.values, view.claim_weights(weights), view.indptr,
            group_of_claim=view.object_idx,
        ))

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        """Per-claim divergence, scaled by the entry's mean divergence.

        The scaling plays the role of Eq. 13/15's std normalization: an
        entry whose claims are widely dispersed should not dominate the
        per-source sums just because its divergences are numerically
        large.
        """
        view = prop.claim_view()
        return kernels.bregman_claim_deviations(
            view.values, state.column, view.indptr, view.object_idx,
            self.generator.divergence,
        )

    def deviations(self, state: TruthState, prop) -> np.ndarray:
        """Dense ``(K, N)`` bridge over :meth:`claim_deviations`."""
        return kernels.scatter_claims_to_matrix(
            prop.claim_view(), self.claim_deviations(state, prop)
        )


@register_loss
class SquaredEuclideanBregmanLoss(BregmanLoss):
    """Squared Euclidean distance (phi(x) = x^2 / 2)."""

    name = "bregman_squared_euclidean"
    generator_name = "squared_euclidean"


@register_loss
class ItakuraSaitoLoss(BregmanLoss):
    """Itakura-Saito distance (phi(x) = -log x); positive data only."""

    name = "bregman_itakura_saito"
    generator_name = "itakura_saito"


@register_loss
class GeneralizedIDivergenceLoss(BregmanLoss):
    """Generalized I-divergence (phi(x) = x log x); positive data only."""

    name = "bregman_generalized_i"
    generator_name = "generalized_i"


def bregman_divergence(name: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate a named generator's divergence (reference helper)."""
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown Bregman generator {name!r}; "
            f"available: {sorted(GENERATORS)}"
        ) from None
    return generator.divergence(np.asarray(x, dtype=np.float64),
                                np.asarray(y, dtype=np.float64))
