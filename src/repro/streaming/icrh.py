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

:class:`IncrementalCRH` is a thin adapter over the layered serving
state: source registration, accumulators, weights and history live in
:class:`~repro.streaming.state.TruthState` (amortized-growth arrays —
registering K sources costs O(K), not the O(K^2) of per-source
``np.append``).  The long-lived serving facade on the same layers is
:class:`~repro.streaming.service.TruthService`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import accumulate_source_deviations
from ..core.losses import Loss, loss_by_name
from ..core.regularizers import ExponentialWeights, WeightScheme
from ..core.result import TruthDiscoveryResult
from ..core.session import ExecutionSession
from ..core.solver import states_to_truth_table
from ..core.sweep import resolve_properties
from ..data.encoding import MISSING_CODE
from ..data.schema import PropertyKind
from ..data.table import TruthTable
from ..engine import BACKEND_NAMES, make_backend
from ..observability import run_finished, run_started, stream_chunk_record
from ..observability.tracer import Tracer
from .state import TruthState
from .windows import StreamChunk, chunk_by_window


@dataclass(frozen=True)
class ICRHConfig:
    """Configuration of incremental CRH.

    ``decay`` is the paper's ``alpha`` in [0, 1]: the impact of historical
    data on the current weight estimate (0 = only the newest chunk
    matters, 1 = all history counts equally).  Loss, weight-scheme and
    ``backend`` choices mirror :class:`~repro.core.solver.CRHConfig`;
    each arriving chunk is resolved through
    :func:`repro.engine.make_backend`.  ``tol`` is the weight-movement
    tolerance convergence reporting uses: a full-stream run counts as
    converged when the final chunk moved no weight by more than ``tol``.
    """

    decay: float = 0.5
    categorical_loss: str = "zero_one"
    continuous_loss: str = "absolute"
    text_loss: str = "edit_distance"
    weight_scheme: WeightScheme = field(
        default_factory=lambda: ExponentialWeights(normalizer="max")
    )
    normalize_by_counts: bool = True
    backend: str = "auto"
    tol: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {self.decay}")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}"
            )
        if self.tol < 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


def losses_for_schema(schema, config: ICRHConfig) -> list[Loss]:
    """One loss per schema property, per the config's kind mapping."""
    losses: list[Loss] = []
    for prop in schema:
        if prop.kind is PropertyKind.CATEGORICAL:
            name = config.categorical_loss
        elif prop.kind is PropertyKind.TEXT:
            name = config.text_loss
        else:
            name = config.continuous_loss
        losses.append(loss_by_name(name))
    return losses


class IncrementalCRH:
    """Stateful one-pass truth discovery over arriving chunks.

    Use :meth:`partial_fit` chunk by chunk (online deployment),
    :func:`icrh` to run over a whole timestamped dataset at once, or
    :class:`~repro.streaming.service.TruthService` for the long-lived
    ingest/read serving facade.  All per-source state lives in
    :attr:`state`, a :class:`~repro.streaming.state.TruthState`.
    """

    def __init__(self, config: ICRHConfig | None = None,
                 tracer: Tracer | None = None) -> None:
        self.config = config or ICRHConfig()
        self.tracer = tracer
        #: the per-source accumulator/weight layer (shared with serving)
        self.state = TruthState()
        self._chunks_seen = 0
        self._last_weight_delta: float | None = None
        #: stream windows consumed (one per partial_fit call)
        self.window_advances = 0
        #: times the decay factor was applied to accumulated history
        self.decay_applications = 0

    # ------------------------------------------------------------------
    @property
    def source_ids(self) -> tuple:
        """All sources seen so far, in order of first appearance."""
        return self.state.source_ids

    @property
    def weights(self) -> np.ndarray:
        """Current source weights, aligned with :attr:`source_ids`."""
        if self._chunks_seen == 0:
            raise ValueError("no chunk processed yet")
        return self.state.weights

    @property
    def weight_history(self) -> np.ndarray:
        """``(T, K)`` weights after each of the ``T`` chunks (Fig. 4a).

        Sources that joined the stream late carry ``NaN`` for the chunks
        before their arrival.
        """
        if self._chunks_seen == 0:
            raise ValueError("no chunk processed yet")
        return self.state.weight_history()

    @property
    def chunks_seen(self) -> int:
        """Chunks absorbed so far."""
        return self._chunks_seen

    @property
    def last_weight_delta(self) -> float | None:
        """Max absolute weight movement of the latest chunk (``None``
        before the first chunk) — what convergence reporting reads."""
        return self._last_weight_delta

    def _positions_for(self, chunk) -> np.ndarray:
        """Accumulator positions of the chunk's sources, registering
        first-time sources (a new source starts with ``a_k = 0`` and
        weight 1, exactly Algorithm 2's line-1 initialization).
        Amortized O(1) per source via the state layer's growable
        arrays."""
        return self.state.register(chunk.source_ids)

    # ------------------------------------------------------------------
    def _losses_for(self, dataset) -> list[Loss]:
        """One loss per property of ``dataset`` (see
        :func:`losses_for_schema`)."""
        return losses_for_schema(dataset.schema, self.config)

    def partial_fit(self, chunk) -> TruthTable:
        """Process one chunk: truths from current weights, then update.

        ``chunk`` may be dense or sparse; it is resolved through the
        config's ``backend`` selector.  Chunks align sources by
        *identifier*, so the stream's source set may evolve: a
        previously unseen source joins with zero accumulated distance
        and weight 1 (Algorithm 2 line 1), and sources absent from a
        chunk simply contribute nothing while their history keeps
        decaying.

        When a tracer was given at construction, each call emits one
        ``chunk`` record (weights, weight delta, arrival counters).
        """
        tracing = self.tracer is not None
        state = self.state
        chunk = make_backend(chunk, self.config.backend).data
        known_sources = state.n_sources
        positions = self._positions_for(chunk)
        new_sources = state.n_sources - known_sources
        weights_for_chunk = state.weights[positions]
        losses = self._losses_for(chunk)
        # Line 3: truths for the current chunk under the learned
        # weights.
        states = resolve_properties(chunk, losses, weights_for_chunk)
        # Lines 4-5: decay-accumulate distances, then recompute
        # weights.
        chunk_dev = np.zeros(chunk.n_sources)
        chunk_cnt = np.zeros(chunk.n_sources)
        for loss, prop, truth_state in zip(losses, chunk.properties, states):
            dev = loss.claim_deviations(truth_state, prop)
            totals, counts = accumulate_source_deviations(
                dev, prop.claim_view().source_idx, chunk.n_sources
            )
            chunk_dev += totals
            chunk_cnt += counts
        if self._chunks_seen:
            self.decay_applications += 1
        state.decay(self.config.decay)
        state.add_deviations(positions, chunk_dev, chunk_cnt)
        self._last_weight_delta = state.refresh_weights(
            self.config.weight_scheme,
            self.config.normalize_by_counts,
        )
        self._chunks_seen += 1
        self.window_advances += 1
        state.record_history()
        if tracing:
            self.tracer.emit(stream_chunk_record(
                self._chunks_seen,
                n_objects=chunk.n_objects,
                n_sources=chunk.n_sources,
                new_sources=new_sources,
                weights=state.weights,
                weight_delta=self._last_weight_delta,
                window_advances=self.window_advances,
                decay_applications=self.decay_applications,
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

    ``dataset`` may be dense or sparse; it is resolved once through the
    config's ``backend`` selector (an
    :class:`~repro.core.session.ExecutionSession`) and chunk views
    inherit that representation.  I-CRH has no runner formulation, so a
    ``process``/``mmap`` request runs inline on the sparse claims and
    reports ``backend="sparse"`` with the degradation reason.  Returns
    the stitched truth table over all objects (aligned with
    ``dataset``), the final weights, and the per-chunk weight history.
    The result is stamped with the completing
    ``backend``/``backend_reason``, and ``converged`` reports whether
    the final chunk's weight delta fell below ``config.tol``.  With a
    tracer, emits ``run_start``, one ``chunk`` record per window, and a
    ``run_end`` carrying the stream counters.
    """
    started = time.perf_counter()
    config = config or ICRHConfig()
    session = ExecutionSession(dataset,
                               make_backend(dataset, config.backend))
    # Degrading on a process/mmap backend also closes it; dense and
    # sparse backends hold nothing to close.
    session.require_inline("I-CRH has no runner formulation")
    dataset = session.data
    model = IncrementalCRH(config, tracer=tracer)
    tracing = tracer is not None
    if tracing:
        tracer.emit(run_started(
            "I-CRH",
            n_sources=dataset.n_sources,
            n_objects=dataset.n_objects,
            n_properties=len(dataset.schema),
            backend=session.backend_name,
            backend_reason=session.backend_reason,
            n_claims=session.backend.n_claims(),
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
        tracer.emit(run_finished(
            iterations=model.chunks_seen,
            converged=converged,
            elapsed_seconds=elapsed,
            window_advances=model.window_advances,
            decay_applications=model.decay_applications,
        ))
    result = session.stamp(TruthDiscoveryResult(
        truths=truths,
        weights=model.weights,
        source_ids=dataset.source_ids,
        method="I-CRH",
        iterations=model.chunks_seen,
        converged=converged,
        elapsed_seconds=elapsed,
    ))
    return ICRHResult(
        result=result,
        weight_history=model.weight_history,
        chunk_sizes=tuple(chunk_sizes),
    )
