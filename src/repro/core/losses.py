"""Loss functions plugging heterogeneous data types into CRH (Section 2.4).

Each loss owns both sides of the block-coordinate iteration for the
properties of its kind, through exactly one method per side:

* ``claim_deviations`` — the per-claim ``d_m(v*_im, v^(k)_im)`` values
  entering the weight step (Eq. 2/5);
* ``update_truth`` — the entry-wise minimizer of Eq. 3 for the truth step;
* ``deviations`` — the dense ``(K, N)`` view of the same deviations, kept
  for consumers that reason over source-by-object matrices (fine-grained
  weights, CATD).

Every engine calls those same two methods: the solver's and the
baselines' inline sweep (:mod:`repro.core.sweep`), the process workers
on their shards, the mmap runner on its chunks, and I-CRH on each
window.

Implemented losses, with their paper equations:

=====================  ===========  ==============================  =================
loss                   data type    deviation                       truth update
=====================  ===========  ==============================  =================
``zero_one``           categorical  Eq. 8 (0-1 indicator)           Eq. 9 (weighted vote)
``probability``        categorical  Eq. 11 (squared L2 on one-hot)  Eq. 12 (weighted mean of one-hot)
``squared``            continuous   Eq. 13 (squared / entry std)    Eq. 14 (weighted mean)
``absolute``           continuous   Eq. 15 (absolute / entry std)   Eq. 16 (weighted median)
=====================  ===========  ==============================  =================

The built-in losses run entirely on the claim view (see
:mod:`repro.core.kernels`), so they accept dense
:class:`~repro.data.table.PropertyObservations` and sparse
:class:`~repro.data.claims_matrix.PropertyClaims` interchangeably — any
property exposing ``claim_view()``, ``codec``, ``schema`` and
``n_objects`` works.  The shipped extensions (:mod:`repro.core.robust_loss`,
:mod:`repro.core.bregman`, :mod:`repro.core.text_loss`) are claim-view
native too.  Custom losses may instead implement only the dense
``deviations``/``update_truth`` pair; they then require a dense property
and fall back to inline sparse execution on the parallel backends.

The paper's recommended configuration (Section 3.1.2) is ``zero_one`` +
``absolute``; ``probability`` + ``squared`` is the provably convergent
Bregman pair (Section 2.5, "Convexity and convergence").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..data.encoding import MISSING_CODE
from ..data.schema import PropertyKind
from . import kernels


@dataclass
class TruthState:
    """Per-property solver state.

    ``column`` always holds the hard per-entry decision — an ``int32`` code
    vector for categorical properties, a ``float64`` vector for continuous
    ones — because the paper's outputs and metrics are defined on hard
    decisions.  Soft losses additionally keep a ``distribution`` (an
    ``(L, N)`` matrix of per-entry category probabilities); ``aux`` caches
    loss-specific precomputations (e.g. the per-entry std of Eqs. 13/15).
    """

    column: np.ndarray
    distribution: np.ndarray | None = None
    aux: dict = field(default_factory=dict)


class Loss(abc.ABC):
    """A loss function ``d_m`` for one property kind.

    ``prop`` arguments are duck-typed: built-in losses only touch the
    claim-view surface (``claim_view()``, ``codec``, ``schema``,
    ``n_objects``), so they run on dense and sparse properties alike.
    """

    #: registry key, e.g. ``"zero_one"``
    name: str
    #: the property kind this loss applies to
    kind: PropertyKind
    #: True when the loss normalizes by the per-entry cross-source std
    #: (Eqs. 13/15); the parallel backends pre-compute and ship that std
    #: alongside the claim arrays for losses that declare it
    uses_entry_std: bool = False
    #: True when the truth step reads the view's cached weighted-median
    #: order (:meth:`~repro.data.claims_matrix.ClaimView.median_order`);
    #: the parallel backends hand each shard or chunk its slice of that
    #: one order for losses that declare it, so none sorts again
    uses_median_order: bool = False

    @abc.abstractmethod
    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        """Wrap an initial truth column into solver state."""

    @abc.abstractmethod
    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        """Truth step: per-entry minimizer of Eq. 3 under this loss."""

    @abc.abstractmethod
    def deviations(self, state: TruthState, prop) -> np.ndarray:
        """``(K, N)`` matrix of ``d_m`` values; ``NaN`` where unobserved."""

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        """Per-claim deviations aligned with ``prop.claim_view()``.

        The default gathers from the dense :meth:`deviations` matrix, so
        dense-only custom losses keep working: a sparse property is
        handed to :meth:`deviations` materialized as its ``(K, N)``
        matrix (``to_dense()``), because ``backend="auto"`` solves dense
        datasets on sparse claims.  Built-in losses override it with a
        direct kernel evaluation (and derive :meth:`deviations` from it
        instead).
        """
        view = prop.claim_view()
        to_dense = getattr(prop, "to_dense", None)
        dense = self.deviations(state, prop if to_dense is None
                                else to_dense())
        return dense[view.source_idx, view.object_idx]

    def objective_contribution(self, state: TruthState, prop,
                               weights: np.ndarray) -> float:
        """This property's term of the objective (Eq. 1)."""
        view = prop.claim_view()
        dev = self.claim_deviations(state, prop)
        return float(np.nansum(dev * view.claim_weights(weights)))


# ----------------------------------------------------------------------
# categorical losses
# ----------------------------------------------------------------------

class ZeroOneLoss(Loss):
    """0-1 loss (Eq. 8) with weighted-vote truth update (Eq. 9)."""

    name = "zero_one"
    kind = PropertyKind.CATEGORICAL

    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        return TruthState(column=np.asarray(init_column, dtype=np.int32))

    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        view = prop.claim_view()
        column = kernels.segment_weighted_vote(
            view.values, view.claim_weights(weights), view.indptr,
            n_categories=len(prop.codec),
            group_of_claim=view.object_idx,
        )
        return TruthState(column=column)

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        view = prop.claim_view()
        return kernels.zero_one_claim_deviations(
            view.values, state.column, view.object_idx
        )

    def deviations(self, state: TruthState, prop) -> np.ndarray:
        return kernels.scatter_claims_to_matrix(
            prop.claim_view(), self.claim_deviations(state, prop)
        )


class ProbabilityVectorLoss(Loss):
    """Squared loss on one-hot encodings (Eqs. 10-12).

    The truth state is a full per-entry probability distribution; the hard
    decision reported in ``column`` is its arg-max ("the most possible
    value").  Deviations use the closed form
    ``||p - e_c||^2 = sum_l p_l^2 - 2 p_c + 1`` so no one-hot matrices are
    materialized per source.
    """

    name = "probability"
    kind = PropertyKind.CATEGORICAL

    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        n_categories = len(prop.codec)
        n = prop.n_objects
        column = np.asarray(init_column, dtype=np.int32)
        distribution = np.zeros((n_categories, n), dtype=np.float64)
        labeled = column != MISSING_CODE
        distribution[column[labeled], np.flatnonzero(labeled)] = 1.0
        return TruthState(column=column, distribution=distribution)

    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        view = prop.claim_view()
        distribution, column = kernels.segment_label_distribution(
            view.values, view.claim_weights(weights), view.indptr,
            n_categories=len(prop.codec),
            group_of_claim=view.object_idx,
        )
        return TruthState(column=column, distribution=distribution)

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        if state.distribution is None:
            raise ValueError("probability loss state lacks a distribution")
        view = prop.claim_view()
        return kernels.probability_claim_deviations(
            view.values, state.distribution, view.object_idx
        )

    def deviations(self, state: TruthState, prop) -> np.ndarray:
        return kernels.scatter_claims_to_matrix(
            prop.claim_view(), self.claim_deviations(state, prop)
        )


# ----------------------------------------------------------------------
# continuous losses
# ----------------------------------------------------------------------

def _entry_std(state_aux: dict, prop) -> np.ndarray:
    """Per-entry cross-source std, cached on the property's claim view.

    Looked up on first use (the deviation pass), so a truth step whose
    state is only read for its column never computes it.
    """
    cached = state_aux.get("std")
    if cached is None:
        cached = prop.claim_view().entry_std()
        state_aux["std"] = cached
    return cached


class NormalizedSquaredLoss(Loss):
    """Squared loss normalized by the entry std (Eq. 13); weighted-mean
    truth update (Eq. 14)."""

    name = "squared"
    kind = PropertyKind.CONTINUOUS
    uses_entry_std = True

    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        return TruthState(column=np.asarray(init_column, dtype=np.float64))

    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        view = prop.claim_view()
        return TruthState(column=kernels.segment_weighted_mean(
            view.values, view.claim_weights(weights), view.indptr,
            group_of_claim=view.object_idx,
        ))

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        view = prop.claim_view()
        return kernels.squared_claim_deviations(
            view.values, state.column, _entry_std(state.aux, prop),
            view.object_idx,
        )

    def deviations(self, state: TruthState, prop) -> np.ndarray:
        return kernels.scatter_claims_to_matrix(
            prop.claim_view(), self.claim_deviations(state, prop)
        )


class NormalizedAbsoluteLoss(Loss):
    """Absolute deviation normalized by the entry std (Eq. 15);
    weighted-median truth update (Eq. 16)."""

    name = "absolute"
    kind = PropertyKind.CONTINUOUS
    uses_entry_std = True
    uses_median_order = True

    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        return TruthState(column=np.asarray(init_column, dtype=np.float64))

    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        view = prop.claim_view()
        return TruthState(column=kernels.segment_weighted_median(
            view.values, view.claim_weights(weights), view.indptr,
            group_of_claim=view.object_idx,
            order=view.median_order(),
        ))

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        view = prop.claim_view()
        return kernels.absolute_claim_deviations(
            view.values, state.column, _entry_std(state.aux, prop),
            view.object_idx,
        )

    def deviations(self, state: TruthState, prop) -> np.ndarray:
        return kernels.scatter_claims_to_matrix(
            prop.claim_view(), self.claim_deviations(state, prop)
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_LOSSES: dict[str, type[Loss]] = {
    cls.name: cls
    for cls in (
        ZeroOneLoss,
        ProbabilityVectorLoss,
        NormalizedSquaredLoss,
        NormalizedAbsoluteLoss,
    )
}


def register_loss(cls: type[Loss]) -> type[Loss]:
    """Register a custom loss; usable as a class decorator."""
    if not getattr(cls, "name", None):
        raise ValueError("loss class must define a non-empty `name`")
    if cls.name in _LOSSES:
        raise ValueError(f"loss {cls.name!r} is already registered")
    _LOSSES[cls.name] = cls
    return cls


def loss_by_name(name: str) -> Loss:
    """Instantiate a registered loss by name."""
    try:
        return _LOSSES[name]()
    except KeyError:
        raise KeyError(
            f"unknown loss {name!r}; registered: {sorted(_LOSSES)}"
        ) from None


def losses_for_schema(schema, config) -> list[Loss]:
    """One loss per property of ``schema``, chosen by property kind.

    ``config`` names the losses through its ``categorical_loss``,
    ``continuous_loss`` and ``text_loss`` fields (every solver config
    has them).  Raises ``ValueError`` naming the property when the
    chosen loss targets a different kind.
    """
    names = {
        PropertyKind.CATEGORICAL: config.categorical_loss,
        PropertyKind.CONTINUOUS: config.continuous_loss,
        PropertyKind.TEXT: config.text_loss,
    }
    losses: list[Loss] = []
    for prop in schema:
        loss = loss_by_name(names[prop.kind])
        if loss.kind is not prop.kind:
            raise ValueError(
                f"loss {loss.name!r} targets {loss.kind} "
                f"but property {prop.name!r} is {prop.kind}"
            )
        losses.append(loss)
    return losses


def available_losses(kind: PropertyKind | None = None) -> tuple[str, ...]:
    """Names of registered losses, optionally filtered by property kind."""
    names = (
        name for name, cls in _LOSSES.items()
        if kind is None or cls.kind is kind
    )
    return tuple(sorted(names))
