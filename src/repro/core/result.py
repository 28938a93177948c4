"""Result container returned by the CRH solver and compatible methods."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..data.table import MultiSourceDataset, TruthTable


@dataclass
class TruthDiscoveryResult:
    """Output of a truth-discovery run.

    Attributes
    ----------
    truths:
        The estimated truth table ``X*`` (one hard decision per entry).
    weights:
        ``(K,)`` estimated source weights, aligned with
        ``truths``/``dataset`` source order.  Baselines that produce
        trust/accuracy scores report them here so Fig. 1's reliability
        comparison treats every method uniformly.
    source_ids:
        Source identifiers aligned with ``weights``.
    method:
        Human-readable method name (e.g. ``"CRH"``, ``"TruthFinder"``).
    iterations:
        Number of optimization iterations performed (0 for one-shot
        methods such as Mean/Median/Voting).
    converged:
        Whether the method's convergence criterion fired before its
        iteration cap.
    objective_history:
        Objective value after every iteration, when the method tracks one.
    elapsed_seconds:
        Wall-clock fit time, filled in by the experiment harness.
    backend:
        Name of the execution backend that actually completed the run
        (``dense``/``sparse``/``process``/``mmap``), or ``None`` for
        methods predating backend execution.  A run that degraded —
        e.g. a ``process`` request whose loss has no worker
        implementation — reports the backend it *finished* on
        (``sparse``), mirroring the trace.
    backend_reason:
        Why that backend ran: the resolution note of
        :func:`repro.engine.make_backend` or, after a degradation, the
        degradation cause (the same string the trace records as
        ``backend_reason``).
    """

    truths: TruthTable
    weights: np.ndarray
    source_ids: tuple[Hashable, ...]
    method: str
    iterations: int = 0
    converged: bool = True
    objective_history: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    backend: str | None = None
    backend_reason: str | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.source_ids),):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"{len(self.source_ids)} sources"
            )

    def weights_by_source(self) -> dict[Hashable, float]:
        """Weights as a dict keyed by source id."""
        return {
            source: float(weight)
            for source, weight in zip(self.source_ids, self.weights)
        }

    def normalized_weights(self) -> np.ndarray:
        """Weights min-max scaled to [0, 1] (how Fig. 1 compares methods)."""
        w = self.weights
        span = w.max() - w.min()
        if span <= 0:
            return np.full_like(w, 0.5)
        return (w - w.min()) / span


def check_result_alignment(result: TruthDiscoveryResult,
                           dataset: MultiSourceDataset) -> None:
    """Raise if a result does not describe ``dataset``'s objects/sources."""
    if result.source_ids != dataset.source_ids:
        raise ValueError("result and dataset disagree on source identity")
    if result.truths.object_ids != dataset.object_ids:
        raise ValueError("result and dataset disagree on object identity")
    if result.truths.schema.names() != dataset.schema.names():
        raise ValueError("result and dataset disagree on schema")
