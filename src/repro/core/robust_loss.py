"""Huber loss for continuous properties.

Section 2.4.2 closes by noting the framework "can take any loss
function".  The Huber loss is the classic middle ground between the
paper's two continuous choices: quadratic near the truth (statistically
efficient, like Eq. 13) and linear in the tails (outlier-robust, like
Eq. 15).  Residuals are normalized by the per-entry cross-source std
first, so the transition point ``delta`` is in entry-std units and the
loss remains scale-free like the published ones.

The truth step has no closed form; the exact per-entry minimizer is
computed by IRLS (iteratively reweighted least squares), warm-started at
the weighted median.  Because the weighted Huber objective is convex in
the truth, IRLS converges to the global per-entry minimum, keeping the
block-coordinate argument of Section 2.5 intact.

Like the four published losses, the Huber loss runs entirely on the
claim view: the truth step is :func:`repro.core.kernels.segment_huber_irls`
(seeded by :func:`~repro.core.kernels.segment_weighted_median`) and the
deviations are :func:`repro.core.kernels.huber_claim_deviations`.  IRLS
convergence is checked *per entry* — each entry freezes once its own
update settles — so the iteration count of one entry never depends on
another entry's claims, and sharded (``process``) and chunked (``mmap``)
execution reproduce the single-array backends bit for bit.  The loss is
listed in ``WORKER_LOSSES`` and ``CHUNK_LOSSES`` and runs natively on
all four execution backends.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import PropertyKind
from . import kernels
from .losses import Loss, TruthState, register_loss, _entry_std


@register_loss
class HuberLoss(Loss):
    """Huber loss on std-normalized residuals; IRLS truth update.

    Truth step: :func:`~repro.core.kernels.segment_huber_irls` warm-started
    at the weighted median; deviations:
    :func:`~repro.core.kernels.huber_claim_deviations`.  Supported
    natively on the dense, sparse, process, and mmap backends.
    """

    name = "huber"
    kind = PropertyKind.CONTINUOUS
    uses_entry_std = True
    uses_median_order = True

    #: residual size (in entry-std units) where quadratic turns linear
    delta: float = 1.0
    #: IRLS iterations for the truth step (converges in a handful)
    irls_iterations: int = 25
    irls_tol: float = 1e-9

    # ------------------------------------------------------------------
    def initial_state(self, prop, init_column: np.ndarray) -> TruthState:
        """Wrap the initial column; pre-cache the per-entry std."""
        state = TruthState(column=np.asarray(init_column, dtype=np.float64))
        _entry_std(state.aux, prop)
        return state

    def update_truth(self, prop, weights: np.ndarray) -> TruthState:
        """Per-entry IRLS minimizer of the weighted Huber objective.

        The effective claim weights are computed once and shared by the
        median warm start and the IRLS solve (they derive the identical
        pair internally), and the median reuses the view's cached sort
        order — pure reuse, bit-identical.
        """
        view = prop.claim_view()
        state = TruthState(column=np.empty(0))
        std = _entry_std(state.aux, prop)
        claim_weights = view.claim_weights(weights)
        effective = kernels.effective_claim_weights(
            claim_weights, view.indptr, view.object_idx
        )
        initial = kernels.segment_weighted_median(
            view.values, claim_weights, view.indptr,
            group_of_claim=view.object_idx,
            order=view.median_order(), effective=effective,
        )
        state.column = kernels.segment_huber_irls(
            view.values, claim_weights, view.indptr, std, initial,
            delta=self.delta, iterations=self.irls_iterations,
            tol=self.irls_tol, group_of_claim=view.object_idx,
            effective=effective,
        )
        return state

    def claim_deviations(self, state: TruthState, prop) -> np.ndarray:
        """Huber deviations per claim (kernel evaluation)."""
        view = prop.claim_view()
        return kernels.huber_claim_deviations(
            view.values, state.column, _entry_std(state.aux, prop),
            view.object_idx, self.delta,
        )

    def deviations(self, state: TruthState, prop) -> np.ndarray:
        """Dense ``(K, N)`` bridge over :meth:`claim_deviations`."""
        return kernels.scatter_claims_to_matrix(
            prop.claim_view(), self.claim_deviations(state, prop)
        )


def huber_value(residual: float, delta: float = 1.0) -> float:
    """Scalar Huber function (reference implementation for tests)."""
    magnitude = abs(residual)
    if magnitude <= delta:
        return 0.5 * residual ** 2
    return delta * (magnitude - 0.5 * delta)
