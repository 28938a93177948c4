"""The CRH solver: block coordinate descent on Eq. 1 (Algorithm 1).

Usage::

    from repro.core import CRHSolver, CRHConfig

    result = CRHSolver().fit(dataset)
    result.truths          # estimated truth table
    result.weights         # estimated source reliability degrees

The default configuration is the one the paper evaluates (Section 3.1.2):
0-1 loss + weighted voting on categorical properties, normalized absolute
deviation + weighted median on continuous properties, and exponential
weights with the max normalizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..data.table import TruthTable
from ..engine import BACKEND_NAMES, make_backend
from ..observability import record
from ..observability.tracer import Tracer
from .initialization import initializer_by_name
from .losses import Loss, TruthState, losses_for_schema
from .objective import ConvergenceCriterion, DeviationOptions
from .regularizers import ExponentialWeights, WeightScheme
from .result import TruthDiscoveryResult
from .session import ExecutionSession


@dataclass(frozen=True)
class CRHConfig:
    """Configuration of the CRH solver.

    Parameters
    ----------
    categorical_loss / continuous_loss:
        Registered loss names applied to properties of each kind
        (see :func:`repro.core.losses.available_losses`).
    weight_scheme:
        The weight-step solver (Section 2.3).  Defaults to the paper's
        max-normalized exponential scheme.
    initializer:
        Truth initialization strategy (``"vote_median"``, ``"vote_mean"``
        or ``"random"``); Section 2.5 recommends Voting/Averaging.
    max_iterations / tol / patience:
        Convergence control: stop after ``max_iterations`` or when the
        objective's relative decrease stays below ``tol`` for ``patience``
        consecutive iterations.
    normalize_by_counts / property_scale:
        Deviation aggregation options (see
        :class:`repro.core.objective.DeviationOptions`).
    backend:
        Execution backend: ``"dense"`` ((K, N) matrices), ``"sparse"``
        (CSR claims), ``"process"`` (sparse claims sharded across worker
        processes over shared memory), ``"mmap"`` (out-of-core chunked
        execution over memory-mapped claims), or ``"auto"`` (sparse in
        RAM, process for large median-heavy claim sets on multi-CPU
        hosts, mmap past the memory cap; see
        :func:`repro.engine.make_backend`).  ``"dense"`` is never
        picked by ``"auto"``, only requested.  All backends produce
        bit-identical results — this is a memory/layout/parallelism
        choice.
    n_workers:
        Worker count for the process backend (``None`` — the session
        default from :func:`repro.engine.set_default_workers`, else the
        usable CPU count).  Ignored by the other backends.
    chunk_claims:
        Claims per chunk for the mmap backend (``None`` —
        :data:`repro.engine.mmap.DEFAULT_CHUNK_CLAIMS`).  Ignored by
        the other backends.
    seed:
        Used only by the random initializer.
    """

    categorical_loss: str = "zero_one"
    continuous_loss: str = "absolute"
    text_loss: str = "edit_distance"
    weight_scheme: WeightScheme = field(
        default_factory=lambda: ExponentialWeights(normalizer="max")
    )
    initializer: str = "vote_median"
    max_iterations: int = 100
    tol: float = 1e-6
    patience: int = 1
    normalize_by_counts: bool = True
    property_scale: str = "none"
    backend: str = "auto"
    n_workers: int | None = None
    chunk_claims: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError("n_workers must be >= 1 when given")
        if self.chunk_claims is not None and self.chunk_claims < 1:
            raise ValueError("chunk_claims must be >= 1 when given")

    def with_(self, **changes) -> "CRHConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    def deviation_options(self) -> DeviationOptions:
        """The aggregation options as a DeviationOptions value."""
        return DeviationOptions(
            normalize_by_counts=self.normalize_by_counts,
            property_scale=self.property_scale,
        )


class CRHSolver:
    """Iterative weight/truth solver for the CRH framework (Algorithm 1)."""

    def __init__(self, config: CRHConfig | None = None) -> None:
        self.config = config or CRHConfig()

    # ------------------------------------------------------------------
    def _initial_states(self, session: ExecutionSession,
                        losses: list[Loss]) -> list[TruthState]:
        initializer = initializer_by_name(self.config.initializer)
        rng = (np.random.default_rng(self.config.seed)
               if self.config.initializer == "random" else None)
        return session.initial_states(losses, initializer, rng=rng)

    # ------------------------------------------------------------------
    def fit(self, dataset,
            tracer: Tracer | None = None) -> TruthDiscoveryResult:
        """Run Algorithm 1 on ``dataset`` and return truths + weights.

        ``dataset`` may be a dense
        :class:`~repro.data.table.MultiSourceDataset` or a sparse
        :class:`~repro.data.claims_matrix.ClaimsMatrix`; the config's
        ``backend`` decides the execution representation (``"auto"``
        resolves through :func:`repro.engine.make_backend`, which never
        builds dense storage).

        Pass a :class:`~repro.observability.Tracer` to receive one
        ``iteration`` record per loop pass (objective, weights, weight
        delta, truth-change count, per-step wall time) bracketed by
        ``run_start``/``run_end`` records.  Without one (the default) no
        record is ever constructed, so the uninstrumented hot path is
        unchanged and results are bit-identical.

        The run is driven through an
        :class:`~repro.core.session.ExecutionSession`.  With
        ``backend="process"`` the truth and deviation passes run on
        a shared-memory worker pool; with ``backend="mmap"`` they run
        chunk-at-a-time over memory-mapped claims.  Any runner failure
        (a dead worker, an unreadable chunk, a loss without a chunked /
        worker implementation) degrades the run to inline sparse
        execution, recording the reason as ``backend_reason`` — in
        ``run_start`` when degradation happens at setup, in ``run_end``
        when the runner fails mid-run.  A backend the solver created
        itself is torn down in all cases (errors and KeyboardInterrupt
        included); a caller-built :class:`~repro.engine.ProcessBackend`
        keeps its pool warm for the next run.
        """
        started = time.perf_counter()
        config = self.config
        session = ExecutionSession(
            dataset,
            make_backend(dataset, config.backend,
                         n_workers=config.n_workers,
                         chunk_claims=config.chunk_claims),
        )
        try:
            dataset = session.data
            losses = losses_for_schema(dataset.schema, config)
            states = self._initial_states(session, losses)
            session.start(losses, states, config.deviation_options())

            criterion = ConvergenceCriterion(tol=config.tol,
                                             patience=config.patience)
            weights = np.ones(dataset.n_sources, dtype=np.float64)
            history: list[float] = []
            converged = False
            iterations = 0
            tracing = tracer is not None
            # What run_start advertises; a mid-run degradation corrects
            # it in run_end.
            started_on = session.backend_name
            if tracing:
                tracer.emit(record(
                    "run_start",
                    method="CRH",
                    n_sources=dataset.n_sources,
                    n_objects=dataset.n_objects,
                    n_properties=len(dataset.schema),
                    backend=session.backend_name,
                    backend_reason=session.backend_reason,
                    n_claims=session.backend.n_claims(),
                    n_workers=getattr(session.runner, "n_workers", None),
                    n_chunks=getattr(session.runner, "n_chunks", None),
                ))

            # The aggregate of iteration i's objective is exactly the
            # deviation vector iteration i+1's weight step needs
            # (same states, same reduction), so it is computed once
            # and carried over.
            aggregated: np.ndarray | None = None
            for iterations in range(1, config.max_iterations + 1):
                step_started = time.perf_counter() if tracing else 0.0
                # Step I (Eq. 2): weights from deviations under
                # current truths.
                if aggregated is None:
                    aggregated = session.per_source(states)
                previous_weights = weights
                weights = config.weight_scheme.weights(aggregated)
                if tracing:
                    weight_seconds = time.perf_counter() - step_started
                    previous_states = states
                    step_started = time.perf_counter()
                # Step II (Eq. 3): per-entry truth update under fixed
                # weights.
                states = session.truth_step(weights)
                aggregated = session.per_source(states)
                objective = float(np.dot(weights, aggregated))
                history.append(objective)
                if tracing:
                    tracer.emit(record(
                        "iteration",
                        iteration=iterations,
                        objective=objective,
                        weights=weights,
                        weight_delta=float(
                            np.abs(weights - previous_weights).max()
                        ),
                        truth_changes=_truth_change_count(
                            previous_states, states),
                        truth_seconds=(time.perf_counter()
                                       - step_started),
                        weight_seconds=weight_seconds,
                    ))
                if criterion.update(objective):
                    converged = True
                    break
            truths = states_to_truth_table(dataset, states)

            if tracing:
                extras: dict = {}
                if session.runner is not None:
                    efficiency = session.runner.parallel_efficiency()
                    if efficiency is not None:
                        extras["parallel_efficiency"] = float(efficiency)
                elif session.backend_name != started_on:
                    extras["backend"] = session.backend_name
                    extras["backend_reason"] = session.backend_reason
                tracer.emit(record(
                    "run_end",
                    iterations=iterations,
                    converged=converged,
                    elapsed_seconds=time.perf_counter() - started,
                    **extras,
                ))
            return session.stamp(TruthDiscoveryResult(
                truths=truths,
                weights=weights,
                source_ids=dataset.source_ids,
                method="CRH",
                iterations=iterations,
                converged=converged,
                objective_history=history,
                elapsed_seconds=time.perf_counter() - started,
            ))
        finally:
            session.close()


def _truth_change_count(old_states: list[TruthState],
                        new_states: list[TruthState]) -> int:
    """Entries whose truth moved between two truth steps (NaN-stable)."""
    changed = 0
    for old, new in zip(old_states, new_states):
        a = np.asarray(old.column)
        b = np.asarray(new.column)
        differs = a != b
        if a.dtype.kind == "f":
            differs &= ~(np.isnan(a) & np.isnan(b))
        changed += int(np.count_nonzero(differs))
    return changed


def states_to_truth_table(dataset,
                          states: list[TruthState]) -> TruthTable:
    """Materialize per-property solver states into a :class:`TruthTable`.

    Works on dense datasets and sparse claims matrices alike (both carry
    schema, object ids and codecs).
    """
    columns = []
    for prop, state in zip(dataset.properties, states):
        if prop.schema.uses_codec:
            columns.append(np.asarray(state.column, dtype=np.int32))
        else:
            columns.append(np.asarray(state.column, dtype=np.float64))
    return TruthTable(
        schema=dataset.schema,
        object_ids=dataset.object_ids,
        columns=columns,
        codecs=dataset.codecs(),
    )


def crh(dataset, tracer: Tracer | None = None,
        **config_overrides) -> TruthDiscoveryResult:
    """One-call CRH with optional config overrides and instrumentation.

    >>> result = crh(dataset, continuous_loss="squared", max_iterations=20)
    >>> result = crh(dataset, backend="sparse")       # CSR execution
    >>> result = crh(dataset, tracer=MemoryTracer())  # traced run
    """
    config = CRHConfig(**config_overrides) if config_overrides else CRHConfig()
    return CRHSolver(config).fit(dataset, tracer=tracer)
