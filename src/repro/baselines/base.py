"""Common interface and registry for conflict-resolution methods.

Every baseline (and CRH itself, through an adapter) implements
:class:`ConflictResolver`, so the experiment harness can run the whole
Table 2 / Table 4 method column uniformly.  Every resolver also accepts
the execution-backend knobs (``backend``/``n_workers``/``chunk_claims``)
and reports which backend completed the run on its result — see
:mod:`repro.core.session` and ``docs/RESOLVERS.md`` for the support
matrix.
"""

from __future__ import annotations

import abc
import time

from ..core.result import TruthDiscoveryResult
from ..core.session import ExecutionSession
from ..data.schema import PropertyKind
from ..data.table import MultiSourceDataset
from ..engine import BACKEND_NAMES, make_backend


class ConflictResolver(abc.ABC):
    """A conflict-resolution method mapping a dataset to truths + weights.

    Parameters
    ----------
    backend:
        Execution backend name (``"auto"``, ``"dense"``, ``"sparse"``,
        ``"process"``, ``"mmap"``) resolved through
        :func:`repro.engine.make_backend`; ``"auto"`` runs sparse in
        RAM (process for large median-heavy claim sets on multi-CPU
        hosts, mmap past the memory cap) and ``"dense"`` only runs when
        requested.  Methods whose math has no
        worker/chunk formulation run inline on a parallel backend's
        sparse claims, recording why in the result's
        ``backend_reason`` (see ``docs/RESOLVERS.md``).
    n_workers:
        Worker count for the process backend; ignored elsewhere.
    chunk_claims:
        Claims per chunk for the mmap backend; ignored elsewhere.
    """

    #: registry key and display name, e.g. ``"TruthFinder"``
    name: str
    #: the property kinds this method can resolve; single-type methods
    #: (Mean, Median, GTM, Voting) ignore the other kind, as in the paper.
    handles: frozenset[PropertyKind] = frozenset(
        (PropertyKind.CATEGORICAL, PropertyKind.CONTINUOUS,
         PropertyKind.TEXT)
    )
    #: True when the method's reliability scores measure *unreliability*
    #: (GTM's variances, 3-Estimates' error factors) and must be inverted
    #: before the Fig. 1 comparison.
    scores_are_unreliability: bool = False

    def __init__(self, *, backend: str = "auto",
                 n_workers: int | None = None,
                 chunk_claims: int | None = None) -> None:
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, got {backend!r}"
            )
        self.backend = backend
        self.n_workers = n_workers
        self.chunk_claims = chunk_claims

    def _session(self, dataset) -> ExecutionSession:
        """Resolve ``dataset`` through this resolver's backend knobs."""
        return ExecutionSession(
            dataset,
            make_backend(dataset, self.backend, n_workers=self.n_workers,
                         chunk_claims=self.chunk_claims),
        )

    @abc.abstractmethod
    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Resolve conflicts in ``dataset``."""

    def fit_timed(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Like :meth:`fit` but stamps wall-clock time on the result."""
        started = time.perf_counter()
        result = self.fit(dataset)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def handles_kind(self, kind: PropertyKind) -> bool:
        """Whether this method resolves properties of ``kind``."""
        return kind in self.handles

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_RESOLVERS: dict[str, type[ConflictResolver]] = {}


def register_resolver(cls: type[ConflictResolver]) -> type[ConflictResolver]:
    """Class decorator adding a resolver to the registry."""
    if not getattr(cls, "name", None):
        raise ValueError("resolver class must define a non-empty `name`")
    if cls.name in _RESOLVERS:
        raise ValueError(f"resolver {cls.name!r} is already registered")
    _RESOLVERS[cls.name] = cls
    return cls


def resolver_by_name(name: str, **kwargs) -> ConflictResolver:
    """Instantiate a registered resolver by display name.

    ``kwargs`` are forwarded to the resolver's constructor — every
    resolver uniformly accepts the execution knobs
    (``backend``/``n_workers``/``chunk_claims``) alongside its own
    parameters.  An unknown ``name`` raises :class:`KeyError` listing
    the valid names; constructor errors (e.g. an invalid parameter
    value) propagate unchanged instead of being misreported as an
    unknown resolver.
    """
    try:
        cls = _RESOLVERS[name]
    except KeyError:
        raise KeyError(
            f"unknown resolver {name!r}; registered: {available_resolvers()}"
        ) from None
    return cls(**kwargs)


def available_resolvers() -> tuple[str, ...]:
    """Registered resolver names, sorted."""
    return tuple(sorted(_RESOLVERS))
