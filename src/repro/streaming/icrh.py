"""Incremental CRH (I-CRH) — Algorithm 2 of the paper.

I-CRH processes the stream one chunk at a time and never revisits past
data:

1. *truth step* — compute the chunk's truths from the source weights
   learned on history (Eq. 3 with the current weights);
2. *accumulate* — decay the per-source accumulated distances by ``alpha``
   and add the chunk's deviations:
   ``a_k <- a_k * alpha + sum_im d_m(v*_iml, v^k_iml)``;
3. *weight step* — recompute weights from the accumulated distances.

Smaller ``alpha`` forgets the past faster.  Observation counts are decayed
with the same rate so the count normalization of Section 2.5 stays
consistent under decay.  Each chunk costs a single pass — no inner
iteration — which is where the Table 5 speedup over CRH comes from.

:class:`IncrementalCRH` holds the whole Algorithm-2 state: source
registration, accumulators, weights and weight history, in
amortized-growth arrays (registering K sources costs O(K), not the
O(K^2) of per-source ``np.append``).  The long-lived serving facade
over the same model is :class:`~repro.streaming.service.TruthService`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from ..core.kernels import accumulate_source_deviations
from ..core.losses import losses_for_schema
from ..core.regularizers import ExponentialWeights, WeightScheme
from ..core.result import TruthDiscoveryResult
from ..core.solver import states_to_truth_table
from ..core.sweep import resolve_properties
from ..data.encoding import MISSING_CODE
from ..data.table import TruthTable
from ..observability import record
from ..observability.tracer import Tracer
from .store import GrowableArray
from .windows import chunk_by_window


@dataclass(frozen=True)
class ICRHConfig:
    """Configuration of incremental CRH.

    ``decay`` is the paper's ``alpha`` in [0, 1]: the impact of historical
    data on the current weight estimate (0 = only the newest chunk
    matters, 1 = all history counts equally).  Loss and weight-scheme
    choices mirror :class:`~repro.core.solver.CRHConfig`.  ``tol`` is
    the weight-movement tolerance convergence reporting uses: a
    full-stream run counts as converged when the final chunk moved no
    weight by more than ``tol``.
    """

    decay: float = 0.5
    categorical_loss: str = "zero_one"
    continuous_loss: str = "absolute"
    text_loss: str = "edit_distance"
    weight_scheme: WeightScheme = field(
        default_factory=lambda: ExponentialWeights(normalizer="max")
    )
    normalize_by_counts: bool = True
    tol: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {self.decay}")
        if self.tol < 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


class IncrementalCRH:
    """Stateful one-pass truth discovery over arriving chunks.

    Use :meth:`partial_fit` chunk by chunk (online deployment),
    :func:`icrh` to run over a whole timestamped dataset at once, or
    :class:`~repro.streaming.service.TruthService` for the long-lived
    ingest/read serving facade.

    Sources register in first-appearance order and keep their index for
    the lifetime of the model.  A new source starts with zero
    accumulated distance and weight 1 — exactly Algorithm 2's line-1
    initialization — so registration order never changes any source's
    weight value.
    """

    def __init__(self, config: ICRHConfig | None = None,
                 tracer: Tracer | None = None) -> None:
        self.config = config or ICRHConfig()
        self.tracer = tracer
        self._ids: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._accumulated = GrowableArray(np.float64, 0.0)
        self._counts = GrowableArray(np.float64, 0.0)
        self._weights = GrowableArray(np.float64, 1.0)
        self._history: list[np.ndarray] = []
        #: chunks absorbed (one per :meth:`partial_fit`) — also the
        #: weight epoch the serving layer versions its truths by
        self.chunks_seen = 0
        self._last_weight_delta: float | None = None

    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        """Number of registered sources."""
        return len(self._ids)

    @property
    def source_ids(self) -> tuple:
        """All sources seen so far, in order of first appearance."""
        return tuple(self._ids)

    @property
    def accumulated(self) -> np.ndarray:
        """Decayed accumulated distances ``a_k`` (live view)."""
        return self._accumulated.data

    @property
    def counts(self) -> np.ndarray:
        """Decayed observation counts (live view)."""
        return self._counts.data

    @property
    def weights(self) -> np.ndarray:
        """Current source weights, aligned with :attr:`source_ids`."""
        if self.chunks_seen == 0:
            raise ValueError("no chunk processed yet")
        return self._weights.data

    @property
    def weight_history(self) -> np.ndarray:
        """``(T, K)`` weights after each of the ``T`` chunks (Fig. 4a).

        Sources that joined the stream late carry ``NaN`` for the chunks
        before their arrival.
        """
        if not self._history:
            raise ValueError("no chunk processed yet")
        padded = np.full((len(self._history), len(self._ids)), np.nan)
        for t, row in enumerate(self._history):
            padded[t, :row.size] = row
        return padded

    @property
    def growth_events(self) -> int:
        """Buffer reallocations across the three accumulator arrays —
        O(log K) for K sources."""
        return (self._accumulated.growth_events
                + self._counts.growth_events
                + self._weights.growth_events)

    @property
    def last_weight_delta(self) -> float | None:
        """Max absolute weight movement of the latest chunk (``None``
        before the first chunk) — what convergence reporting reads."""
        return self._last_weight_delta

    def register(self, source_ids: Sequence[Hashable]) -> np.ndarray:
        """Positions of ``source_ids``, registering first-timers.

        New sources append with ``a_k = 0``, count 0 and weight 1;
        existing sources keep their index.  Amortized O(1) per source.
        """
        positions = np.empty(len(source_ids), dtype=np.int64)
        for i, source_id in enumerate(source_ids):
            index = self._index.get(source_id)
            if index is None:
                index = len(self._ids)
                self._ids.append(source_id)
                self._index[source_id] = index
            positions[i] = index
        # New slots take each array's fill: a_k = 0, count 0, weight 1.
        for array in (self._accumulated, self._counts, self._weights):
            array.resize_to(len(self._ids))
        return positions

    def load(self, source_ids: Sequence[Hashable],
             accumulated: np.ndarray, counts: np.ndarray,
             weights: np.ndarray, history: Sequence[np.ndarray],
             chunks_seen: int) -> None:
        """Restore the model from snapshot arrays (see
        :meth:`repro.streaming.service.TruthService.snapshot`)."""
        if self._ids:
            raise ValueError("cannot load into a model with sources")
        self.register(source_ids)
        self._accumulated.data[:] = accumulated
        self._counts.data[:] = counts
        self._weights.data[:] = weights
        self._history = [np.asarray(row, dtype=np.float64).copy()
                         for row in history]
        self.chunks_seen = int(chunks_seen)

    # ------------------------------------------------------------------
    def partial_fit(self, chunk) -> TruthTable:
        """Process one chunk: truths from current weights, then update.

        ``chunk`` may be dense or sparse; the losses read only its claim
        views, so both give identical bits.  Chunks align sources by
        *identifier*, so the stream's source set may evolve: a
        previously unseen source joins with zero accumulated distance
        and weight 1 (Algorithm 2 line 1), and sources absent from a
        chunk simply contribute nothing while their history keeps
        decaying.

        When a tracer was given at construction, each call emits one
        ``chunk`` record (weights, weight delta, arrival counters).
        """
        losses = losses_for_schema(chunk.schema, self.config)
        known_sources = self.n_sources
        positions = self.register(chunk.source_ids)
        # Line 3: truths for the current chunk under the learned
        # weights.
        states = resolve_properties(chunk, losses,
                                    self._weights.data[positions])
        # Line 4: decay the accumulated distances and counts, then add
        # the chunk's deviations.
        chunk_dev = np.zeros(chunk.n_sources)
        chunk_cnt = np.zeros(chunk.n_sources)
        for loss, prop, truth_state in zip(losses, chunk.properties, states):
            dev = loss.claim_deviations(truth_state, prop)
            totals, counts = accumulate_source_deviations(
                dev, prop.claim_view().source_idx, chunk.n_sources
            )
            chunk_dev += totals
            chunk_cnt += counts
        accumulated = self._accumulated.data
        counts = self._counts.data
        accumulated *= self.config.decay
        counts *= self.config.decay
        np.add.at(accumulated, positions, chunk_dev)
        np.add.at(counts, positions, chunk_cnt)
        # Line 5: weights from the accumulators.  Sources with no
        # surviving observations keep the line-1 weight of 1 rather
        # than the best-in-class weight a zero deviation would imply.
        if self.config.normalize_by_counts:
            with np.errstate(invalid="ignore", divide="ignore"):
                normalized = accumulated / counts
            per_source = np.where(counts > 0, normalized, 0.0)
        else:
            per_source = accumulated
        weights = self.config.weight_scheme.weights(per_source)
        unseen = counts <= 1e-12
        if unseen.any():
            weights = np.where(unseen, 1.0, weights)
        current = self._weights.data
        previous = current.copy()
        current[:] = weights
        self._last_weight_delta = float(np.abs(current - previous).max())
        self.chunks_seen += 1
        self._history.append(current.copy())
        if self.tracer is not None:
            self.tracer.emit(record(
                "chunk",
                chunk=self.chunks_seen,
                n_objects=chunk.n_objects,
                n_sources=chunk.n_sources,
                new_sources=self.n_sources - known_sources,
                weights=current,
                weight_delta=self._last_weight_delta,
                window_advances=self.chunks_seen,
                decay_applications=self.chunks_seen - 1,
            ))
        return states_to_truth_table(chunk, states)


@dataclass
class ICRHResult:
    """Output of a full-stream I-CRH run."""

    result: TruthDiscoveryResult
    #: ``(T, K)`` source weights after each chunk
    weight_history: np.ndarray
    #: number of objects per chunk
    chunk_sizes: tuple[int, ...]

    @property
    def truths(self) -> TruthTable:
        return self.result.truths

    @property
    def weights(self) -> np.ndarray:
        return self.result.weights


def icrh(dataset, window: int = 1,
         config: ICRHConfig | None = None,
         tracer: Tracer | None = None) -> ICRHResult:
    """Run I-CRH over a timestamped dataset, chunking by time window.

    ``dataset`` may be dense or sparse; chunk views inherit its
    representation.  Returns the stitched truth table over all objects
    (aligned with ``dataset``), the final weights, and the per-chunk
    weight history.  ``converged`` reports whether the final chunk's
    weight delta fell below ``config.tol``.  With a tracer, emits
    ``run_start``, one ``chunk`` record per window, and a ``run_end``
    carrying the stream counters.
    """
    started = time.perf_counter()
    config = config or ICRHConfig()
    model = IncrementalCRH(config, tracer=tracer)
    tracing = tracer is not None
    if tracing:
        tracer.emit(record(
            "run_start",
            method="I-CRH",
            n_sources=dataset.n_sources,
            n_objects=dataset.n_objects,
            n_properties=len(dataset.schema),
            n_claims=dataset.n_observations(),
        ))
    columns: list[np.ndarray] = []
    for prop in dataset.schema:
        if prop.uses_codec:
            columns.append(
                np.full(dataset.n_objects, MISSING_CODE, dtype=np.int32)
            )
        else:
            columns.append(np.full(dataset.n_objects, np.nan))
    chunk_sizes: list[int] = []
    for chunk in chunk_by_window(dataset, window):
        chunk_truths = model.partial_fit(chunk.dataset)
        chunk_sizes.append(chunk.dataset.n_objects)
        for m in range(len(dataset.schema)):
            columns[m][chunk.object_indices] = chunk_truths.columns[m]
    truths = TruthTable(
        schema=dataset.schema,
        object_ids=dataset.object_ids,
        columns=columns,
        codecs=dataset.codecs(),
    )
    elapsed = time.perf_counter() - started
    converged = (model.last_weight_delta is not None
                 and model.last_weight_delta <= config.tol)
    if tracing:
        tracer.emit(record(
            "run_end",
            iterations=model.chunks_seen,
            converged=converged,
            elapsed_seconds=elapsed,
            window_advances=model.chunks_seen,
            decay_applications=model.chunks_seen - 1,
        ))
    result = TruthDiscoveryResult(
        truths=truths,
        weights=model.weights,
        source_ids=dataset.source_ids,
        method="I-CRH",
        iterations=model.chunks_seen,
        converged=converged,
        elapsed_seconds=elapsed,
    )
    return ICRHResult(
        result=result,
        weight_history=model.weight_history,
        chunk_sizes=tuple(chunk_sizes),
    )
