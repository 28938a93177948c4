"""One run's view of an execution backend.

The CRH solver and every baseline resolver run the same
choreography around a backend built by :func:`repro.engine.make_backend`:
arm the backend's parallel runner when it has one, send each truth step
and deviation pass either to that runner or to the inline
:class:`~repro.core.sweep.SweepContext`, degrade to inline sparse
execution when the runner refuses the losses, dies mid-run, or the
method has no runner formulation, record which backend actually
completed the run (and why), and tear down a backend the run built for
itself.  :class:`ExecutionSession` is that choreography, written once.

Degradation has three entry points, each leaving ``backend_name ==
"sparse"`` and a human-readable ``backend_reason``:

* setup — :meth:`ExecutionSession.start` cannot arm the runner (a loss
  outside ``WORKER_LOSSES``/``CHUNK_LOSSES``, a pool that will not
  start): ``"<name> backend degraded to inline sparse execution: …"``;
* mid-run — the runner raises during a step; the session finishes on the
  inline path: ``"process worker failed mid-run; finishing inline on
  sparse claims: …"`` on the process backend, ``"<name> backend failed
  mid-run; finishing inline on sparse claims: …"`` elsewhere;
* by declaration — :meth:`ExecutionSession.require_inline`: the method
  has no runner formulation at all (GTM, the fact-graph baselines),
  so a process/mmap request is honoured as storage but executed
  inline, with the same setup wording.

Each step goes to the runner *or* the sweep, never one inside the other,
so traced spans of the two paths never nest.  ``docs/RESOLVERS.md``
documents the outcome per resolver.
"""

from __future__ import annotations

import numpy as np

from ..engine import BackendExecutionError
from .losses import Loss, TruthState
from .objective import DeviationOptions
from .sweep import SweepContext


class ExecutionSession:
    """One run's view of an execution backend.

    Parameters
    ----------
    source:
        What the caller asked to run on: a dense
        :class:`~repro.data.table.MultiSourceDataset`, a sparse
        :class:`~repro.data.claims_matrix.ClaimsMatrix`, or an
        already-built backend.
    backend:
        ``make_backend(source, ...)``.  When it is not ``source`` itself
        the session owns it and :meth:`close` tears it down; a
        caller-built backend is left open (a warm process pool survives
        for the next run).

    Attributes
    ----------
    backend:
        The resolved backend (storage, ``n_claims()``, runner factory).
    runner:
        The armed parallel runner, or ``None`` while steps run inline.
    backend_name / backend_reason:
        The backend that is (or will be) *completing* the run and why —
        initially the backend's own name and resolution, rewritten to
        ``("sparse", <cause>)`` on degradation.  :meth:`stamp` copies
        them onto a result.
    """

    def __init__(self, source, backend) -> None:
        self.backend = backend
        self._owns = backend is not source
        self.runner = None
        self._sweep: SweepContext | None = None
        self.backend_name: str = backend.name
        self.backend_reason: str = backend.resolution

    @property
    def data(self):
        """The resolved dataset (dense table or sparse claims matrix)."""
        return self.backend.data

    # ------------------------------------------------------------------
    def initial_states(self, losses: list[Loss], initializer,
                       rng: np.random.Generator | None = None,
                       ) -> list[TruthState]:
        """Initializer columns wrapped into per-property loss states.

        Backends that stream their claims (mmap) expose an
        ``initial_columns`` hook that runs the initializer chunk-wise —
        bit-identical to the full-array pass, without materializing
        every claim column at once.  ``rng`` is forwarded to initializers
        that draw (the random one).
        """
        hook = getattr(self.backend, "initial_columns", None)
        if hook is not None:
            columns = hook(initializer, rng=rng)
        elif rng is not None:
            columns = initializer(self.data, rng=rng)
        else:
            columns = initializer(self.data)
        return [
            loss.initial_state(prop, column)
            for loss, prop, column in zip(losses, self.data.properties,
                                          columns)
        ]

    def start(self, losses: list[Loss], states: list[TruthState],
              options: DeviationOptions | None = None) -> None:
        """Build the inline sweep and arm the runner, if the backend has one.

        ``options`` governs every :meth:`per_source` call of the run.  A
        process/mmap runner that refuses the losses or fails during
        setup degrades the session (see the module docstring).
        """
        self._sweep = SweepContext(self.data, losses, options)
        if not getattr(self.backend, "supports_runner", False):
            return
        try:
            runner = self.backend.start_runner(losses)
            runner.seed(states)
        except BackendExecutionError as error:
            self._degrade(f"{self.backend.name} backend degraded to "
                          f"inline sparse execution: {error}")
        else:
            self.runner = runner

    def require_inline(self, why: str) -> None:
        """Declare that this method has no runner formulation.

        On a parallel backend (process/mmap) the session degrades
        immediately — storage resolution still happened, but the math
        runs inline on the sparse claims and the result says so.  Dense
        and sparse backends are unaffected.
        """
        if getattr(self.backend, "supports_runner", False):
            self._degrade(f"{self.backend.name} backend degraded to "
                          f"inline sparse execution: {why}")

    # ------------------------------------------------------------------
    def truth_step(self, weights: np.ndarray) -> list[TruthState]:
        """One truth step under ``weights`` — on the runner when live."""
        if self.runner is not None:
            try:
                return self.runner.truth_step(weights)
            except BackendExecutionError as error:
                self._fail_mid_run(error)
        return self._sweep.truth_step(weights)

    def per_source(self, states: list[TruthState]) -> np.ndarray:
        """Per-source aggregate deviations of ``states`` (Eq. 2's input)."""
        if self.runner is not None:
            try:
                return self.runner.per_source(states, self._sweep.options)
            except BackendExecutionError as error:
                self._fail_mid_run(error)
        return self._sweep.per_source(states)

    def _fail_mid_run(self, error: BackendExecutionError) -> None:
        if self.backend.name == "process":
            self._degrade("process worker failed mid-run; finishing "
                          f"inline on sparse claims: {error}")
        else:
            self._degrade(f"{self.backend.name} backend failed mid-run; "
                          f"finishing inline on sparse claims: {error}")

    def _degrade(self, reason: str) -> None:
        self.runner = None
        self.backend_name = "sparse"
        self.backend_reason = reason
        self._close_backend()

    # ------------------------------------------------------------------
    def stamp(self, result):
        """Record the completing backend and reason on ``result``."""
        result.backend = self.backend_name
        result.backend_reason = self.backend_reason
        return result

    def close(self) -> None:
        """Tear down a session-owned backend (idempotent)."""
        if self._owns:
            self._close_backend()

    def _close_backend(self) -> None:
        closer = getattr(self.backend, "close", None)
        if closer is not None:
            closer()
