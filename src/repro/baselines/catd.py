"""CATD — Li et al., VLDB 2014 [23]: confidence-aware truth discovery.

The CRH authors' follow-up work, cited in the paper's introduction,
addresses *long-tail* sources: when a source makes only a handful of
claims, a point estimate of its reliability is wildly uncertain, and
CRH-style weights can over-trust a lucky small source.  CATD replaces
the point estimate with the upper bound of a confidence interval on the
source's error variance:

    w_k = chi^2_{alpha/2, n_k} / sum_i d(v^k_i, v*_i)

where ``n_k`` is the source's claim count and the chi-squared quantile
grows sub-linearly in ``n_k`` — so a source with few observations gets a
deliberately shrunk weight even if those few observations happen to
match the truths, while well-observed sources converge to the CRH-style
inverse-error weight.  Truths are then the weighted mean (continuous) /
weighted vote (categorical) under those weights, iterated like CRH.

Both halves of the iteration run through the segment kernels via an
:class:`~repro.core.session.ExecutionSession`: the per-source
error sums are :meth:`~repro.core.session.ExecutionSession.per_source`
aggregates (un-normalized), the truth updates are kernel truth steps.
On datasets without text properties every loss is worker/chunk-capable,
so CATD runs natively on all four backends; a text property brings the
``edit_distance`` loss, which has no worker/chunk implementation — the
process and mmap backends then degrade to inline sparse execution with
the refusal traced in the result's ``backend_reason``.

This is an *extension* method (not one of the paper's Table 2 baselines)
and therefore not part of ``PAPER_METHOD_ORDER``; it shines exactly
where the deep-web workloads hurt CRH least-covered sources — see
``tests/test_catd.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from ..core.initialization import initialize_vote_median
from ..core.losses import loss_by_name
from ..core.objective import ConvergenceCriterion, DeviationOptions
from ..core.result import TruthDiscoveryResult
from ..core.solver import states_to_truth_table
from ..data.schema import PropertyKind
from ..data.table import MultiSourceDataset
from .base import ConflictResolver, register_resolver


def _claim_counts(data) -> np.ndarray:
    """Per-source observation counts across all properties."""
    counts = np.zeros(data.n_sources, dtype=np.float64)
    for prop in data.properties:
        view = prop.claim_view()
        counts += np.bincount(view.source_idx, minlength=data.n_sources)
    return counts


@register_resolver
class CATDResolver(ConflictResolver):
    """Confidence-aware truth discovery with chi-squared weight bounds.

    Parameters
    ----------
    alpha:
        Significance level of the variance confidence interval; the
        weight uses the ``alpha / 2`` lower quantile of chi^2 with
        ``n_k`` degrees of freedom (the original paper's suggestion,
        alpha = 0.05).
    max_iterations / tol:
        Iteration control, as in CRH.
    backend / n_workers / chunk_claims:
        Execution-backend knobs (see :class:`ConflictResolver`).
    """

    name = "CATD"

    def __init__(self, alpha: float = 0.05, max_iterations: int = 100,
                 tol: float = 1e-6, **backend_kwargs) -> None:
        super().__init__(**backend_kwargs)
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.max_iterations = max_iterations
        self.tol = tol

    def _weights(self, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``chi^2_{alpha/2, n_k} / error_sum_k`` with guards.

        Sources with zero observations get weight 0; perfect sources get
        the weight a tiny floor error implies (finite, dominant).
        """
        quantile = stats.chi2.ppf(self.alpha / 2.0,
                                  df=np.maximum(counts, 1))
        floor = 1e-8 * max(float(sums.max()), 1e-12)
        weights = quantile / np.maximum(sums, floor)
        weights[counts <= 0] = 0.0
        # Normalize for numerical comparability across iterations.
        top = weights.max()
        return weights / top if top > 0 else np.ones_like(weights)

    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Iterate chi-squared-bounded weights and weighted truth updates."""
        session = self._session(dataset)
        try:
            data = session.data
            losses = []
            for prop in data.schema:
                if prop.kind is PropertyKind.CONTINUOUS:
                    # CATD is formulated on squared errors.
                    losses.append(loss_by_name("squared"))
                elif prop.kind is PropertyKind.TEXT:
                    losses.append(loss_by_name("edit_distance"))
                else:
                    losses.append(loss_by_name("zero_one"))
            states = session.initial_states(losses, initialize_vote_median)
            session.start(losses, states,
                          DeviationOptions(normalize_by_counts=False))
            counts = _claim_counts(data)
            criterion = ConvergenceCriterion(tol=self.tol)
            weights = np.ones(data.n_sources)
            converged = False
            iterations = 0
            for iterations in range(1, self.max_iterations + 1):
                sums = session.per_source(states)
                weights = self._weights(sums, counts)
                states = session.truth_step(weights)
                objective = float(np.dot(weights, sums))
                if criterion.update(objective):
                    converged = True
                    break
            truths = states_to_truth_table(data, states)
            return session.stamp(TruthDiscoveryResult(
                truths=truths,
                weights=weights,
                source_ids=data.source_ids,
                method=self.name,
                iterations=iterations,
                converged=converged,
            ))
        finally:
            session.close()
