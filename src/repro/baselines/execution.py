"""Backend execution session shared by the baseline resolvers.

The CRH solver resolves its input through
:func:`repro.engine.make_backend`, arms the backend's runner when one
exists, and degrades to inline sparse execution when the runner cannot
serve the configured losses.  Every baseline resolver needs the same
choreography, so this module packages it once:
:class:`ExecutionSession` owns the resolved backend, exposes
kernel-level ``truth_step``/``per_source`` calls that transparently use
the parallel runner when it is live, and records which backend actually
completed the run (plus why) for the result's
``backend``/``backend_reason`` fields.

Degradation has two entry points:

* :meth:`ExecutionSession.start` — the runner refuses the loss plan
  (e.g. a text ``edit_distance`` loss on the process backend) or fails
  mid-run; the session finishes inline on the sparse claim storage,
  exactly like :class:`~repro.core.solver.CRHSolver`.
* :meth:`ExecutionSession.require_inline` — the *method* has no
  kernel-step formulation at all (GTM's Bayesian variance updates, the
  fact-graph baselines); a parallel backend request is honored as
  storage but executed inline, with the documented reason traced.

Both paths leave ``backend_name == "sparse"`` and a human-readable
``backend_reason``, which ``docs/RESOLVERS.md`` documents per resolver.
"""

from __future__ import annotations

import numpy as np

from ..core.losses import Loss, TruthState
from ..core.objective import DeviationOptions, per_source_deviations
from ..engine import BackendExecutionError, make_backend


class ExecutionSession:
    """One resolver run's view of an execution backend.

    Parameters
    ----------
    data:
        A dense :class:`~repro.data.table.MultiSourceDataset`, a sparse
        :class:`~repro.data.claims_matrix.ClaimsMatrix`, or an
        already-built backend.
    backend / n_workers / chunk_claims:
        Forwarded to :func:`repro.engine.make_backend`; the same knobs
        :class:`~repro.core.solver.CRHConfig` exposes.

    Attributes
    ----------
    backend_name / backend_reason:
        The backend that is (or will be) *completing* the run and why —
        initially the resolution of :func:`~repro.engine.make_backend`,
        rewritten to ``("sparse", <cause>)`` on degradation.  Resolvers
        copy them onto their result via :meth:`stamp`.
    """

    def __init__(self, data, backend: str = "auto", *,
                 n_workers: int | None = None,
                 chunk_claims: int | None = None) -> None:
        built = make_backend(data, backend, n_workers=n_workers,
                             chunk_claims=chunk_claims)
        self._backend = built
        self._owns = built is not data
        self._runner = None
        self._losses: list[Loss] | None = None
        self.backend_name: str = built.name
        self.backend_reason: str = built.resolution

    # ------------------------------------------------------------------
    @property
    def data(self):
        """The wrapped dataset (dense table or sparse claims matrix)."""
        return self._backend.data

    @property
    def degraded(self) -> bool:
        """Whether the session fell back to inline sparse execution."""
        return self.backend_name != self._backend.name

    @property
    def runner_live(self) -> bool:
        """Whether a parallel runner is currently serving the steps."""
        return self._runner is not None

    # ------------------------------------------------------------------
    def initial_states(self, losses: list[Loss],
                       initializer) -> list[TruthState]:
        """Initializer columns wrapped into per-property loss states.

        Uses the backend's chunked ``initial_columns`` hook when one
        exists (the mmap backend), so out-of-core datasets never
        materialize full claim columns during initialization — exactly
        the solver's behavior.
        """
        self._losses = list(losses)
        hook = getattr(self._backend, "initial_columns", None)
        columns = (hook(initializer) if hook is not None
                   else initializer(self.data))
        return [
            loss.initial_state(prop, column)
            for loss, prop, column in zip(losses, self.data.properties,
                                          columns)
        ]

    def start(self, losses: list[Loss],
              states: list[TruthState] | None = None) -> None:
        """Arm the backend's parallel runner for ``losses``, if any.

        Dense and sparse backends have no runner — the session simply
        executes inline.  A process/mmap runner that refuses the loss
        plan (a loss outside ``WORKER_LOSSES``/``CHUNK_LOSSES``) or
        fails during setup degrades the session with the cause recorded
        in :attr:`backend_reason`.
        """
        self._losses = list(losses)
        if not getattr(self._backend, "supports_runner", False):
            return
        try:
            runner = self._backend.start_runner(losses)
            if states is not None:
                runner.seed(states)
            self._runner = runner
        except BackendExecutionError as error:
            self._degrade(
                f"{self._backend.name} backend degraded to inline "
                f"sparse execution: {error}"
            )

    def require_inline(self, why: str) -> None:
        """Declare that this method has no runner-step formulation.

        On a parallel backend (process/mmap) the session degrades
        immediately — storage resolution still happened, but the math
        runs inline on the sparse claims and the result says so.  Dense
        and sparse backends are unaffected.
        """
        if getattr(self._backend, "supports_runner", False):
            self._degrade(
                f"{self._backend.name} backend degraded to inline "
                f"sparse execution: {why}"
            )

    def _degrade(self, reason: str) -> None:
        self._runner = None
        self.backend_name = "sparse"
        self.backend_reason = reason
        closer = getattr(self._backend, "close", None)
        if closer is not None:
            closer()

    # ------------------------------------------------------------------
    def truth_step(self, weights: np.ndarray) -> list[TruthState]:
        """One truth step under ``weights`` — parallel when possible.

        Falls back to the inline per-property ``update_truth`` loop when
        no runner is live, or mid-run when the runner dies (the failure
        is traced into :attr:`backend_reason`).  Both paths produce
        bit-identical states for kernel-native losses.
        """
        if self._runner is not None:
            try:
                return self._runner.truth_step(weights)
            except BackendExecutionError as error:
                self._degrade(
                    f"{self._backend.name} backend failed mid-run; "
                    f"finishing inline on sparse claims: {error}"
                )
        return [
            loss.update_truth(prop, weights)
            for loss, prop in zip(self._losses, self.data.properties)
        ]

    def per_source(self, states: list[TruthState],
                   options: DeviationOptions = DeviationOptions(),
                   ) -> np.ndarray:
        """Per-source aggregate deviations of ``states`` (Eq. 2's input).

        Same runner-first / inline-fallback contract as
        :meth:`truth_step`.
        """
        if self._runner is not None:
            try:
                return self._runner.per_source(states, options)
            except BackendExecutionError as error:
                self._degrade(
                    f"{self._backend.name} backend failed mid-run; "
                    f"finishing inline on sparse claims: {error}"
                )
        return per_source_deviations(self.data, self._losses, states,
                                     options)

    # ------------------------------------------------------------------
    def stamp(self, result):
        """Record the completing backend and reason on ``result``."""
        result.backend = self.backend_name
        result.backend_reason = self.backend_reason
        return result

    def close(self) -> None:
        """Tear down a session-owned backend (idempotent)."""
        if self._owns:
            closer = getattr(self._backend, "close", None)
            if closer is not None:
                closer()
