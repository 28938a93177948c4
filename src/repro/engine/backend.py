"""Execution backends: how engines hold and traverse the claims.

The CRH math lives in :mod:`repro.core.kernels` and is representation-
agnostic — it consumes claim views.  A *backend* decides what the claims
are stored as:

* :class:`DenseBackend` — a :class:`~repro.data.table.MultiSourceDataset`
  of ``(K, N)`` matrices with NaN/-1 sentinels; claim views are extracted
  (and cached) per property.  Explicit-only: ``"auto"`` never builds it.
* :class:`SparseBackend` — a
  :class:`~repro.data.claims_matrix.ClaimsMatrix` storing exactly the
  claims in CSR-by-object form.  Memory is proportional to the number of
  claims, not ``K x N``; the in-RAM engine ``"auto"`` solves on.
* :class:`~repro.engine.process.ProcessBackend` — sparse claim storage
  sharded across worker processes over shared memory, for true parallel
  CRH on multi-core machines (see :mod:`repro.engine.process`).
* :class:`~repro.engine.mmap.MmapBackend` — out-of-core execution over
  memory-mapped CSR chunks, for claim sets larger than RAM (see
  :mod:`repro.engine.mmap`).

All backends feed kernels the identical canonically-ordered claim view,
so results are bit-identical — the choice is purely a
memory/layout/parallelism trade-off.  :func:`make_backend` resolves a
dataset plus a ``backend`` name (``"auto"``, ``"dense"``, ``"sparse"``,
``"process"``, ``"mmap"``) into a backend, converting the
representation when the request disagrees with the input (and saying so
in the backend's ``resolution`` string).  ``"auto"`` follows the
session default when one was set, and otherwise solves on sparse claims
in RAM (:func:`repro.data.profile.recommended_backend`): upgraded to the
process backend when the claim set is large, more than one CPU is
usable, the pool would run more than one worker and at least half the
claims are continuous (median-heavy), and
escalated to the out-of-core mmap backend when the sparse projection
exceeds the memory cap (:func:`repro.engine.mmap.resolved_memory_cap`);
the module-level default (:func:`set_default_backend` /
:func:`use_default_backend`) lets harnesses and the CLI steer every
``"auto"`` resolution without threading a parameter through each call.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Protocol, runtime_checkable

from ..data.claims_matrix import ClaimsMatrix
from ..data.profile import recommended_backend
from ..data.table import MultiSourceDataset

#: valid backend selector names
BACKEND_NAMES = ("auto", "dense", "sparse", "process", "mmap")

#: what each backend stores its claims as — the process and mmap
#: backends keep the sparse representation (shared segments and chunk
#: streaming are internal), so conversion notes in resolution strings
#: track these, not class names.
_STORAGE = {"dense": "dense", "sparse": "sparse", "process": "sparse",
            "mmap": "sparse"}


class BackendExecutionError(RuntimeError):
    """Base of backend runner failures the solver degrades on.

    Raised (via its subclasses
    :class:`~repro.engine.process.ProcessBackendError` and
    :class:`~repro.engine.mmap.MmapBackendError`) when a backend with a
    ``start_runner`` protocol cannot set up or fails mid-run; the
    solver catches it, closes the backend, and finishes the run inline
    on the sparse claim storage with the reason traced as
    ``backend_reason``.
    """


@runtime_checkable
class ExecutionBackend(Protocol):
    """What an engine needs from a claims holder.

    Both concrete backends delegate to their wrapped dataset, which means
    any dataset-shaped object (schema / source_ids / object_ids /
    properties whose items expose ``claim_view()``) can back an engine.
    """

    #: backend tag carried into trace records (a ``BACKEND_NAMES`` entry)
    name: str

    @property
    def data(self):
        """The wrapped dataset (dense table or sparse claims matrix)."""

    def n_claims(self) -> int:
        """Total stored claims across all properties."""


class _BackendBase:
    """Shared delegation plumbing of the two concrete backends."""

    name = "base"

    #: how this backend was chosen — an explicit request, the session
    #: default, or the ``"auto"`` policy; stamped by
    #: :func:`make_backend` and recorded in ``run_start`` trace records.
    resolution = "constructed directly"

    def __init__(self, data) -> None:
        self._data = data

    @property
    def data(self):
        """The wrapped dataset."""
        return self._data

    @property
    def schema(self):
        """The dataset schema."""
        return self._data.schema

    @property
    def source_ids(self):
        """Source identifiers in weight order."""
        return self._data.source_ids

    @property
    def object_ids(self):
        """Object identifiers in truth-column order."""
        return self._data.object_ids

    @property
    def properties(self):
        """Per-property claim holders (dense matrices or CSR claims)."""
        return self._data.properties

    @property
    def n_sources(self) -> int:
        """Number of sources K."""
        return self._data.n_sources

    @property
    def n_objects(self) -> int:
        """Number of objects N."""
        return self._data.n_objects

    @property
    def n_properties(self) -> int:
        """Number of properties M."""
        return self._data.n_properties

    def codecs(self):
        """Codecs of codec-backed properties, keyed by name."""
        return self._data.codecs()

    def n_claims(self) -> int:
        """Total stored claims across all properties."""
        return int(self._data.n_observations())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._data!r})"


class DenseBackend(_BackendBase):
    """Backend over dense ``(K, N)`` observation matrices."""

    name = "dense"

    def __init__(self, data: MultiSourceDataset) -> None:
        if isinstance(data, ClaimsMatrix):
            data = data.to_dense()
        super().__init__(data)


class SparseBackend(_BackendBase):
    """Backend over CSR-by-object sparse claims."""

    name = "sparse"

    def __init__(self, data: ClaimsMatrix) -> None:
        if isinstance(data, MultiSourceDataset):
            data = ClaimsMatrix.from_dense(data)
        super().__init__(data)


_default_backend = "auto"


def get_default_backend() -> str:
    """The backend name ``"auto"`` currently resolves through."""
    return _default_backend


def set_default_backend(name: str) -> None:
    """Set what ``backend="auto"`` resolves to process-wide.

    ``"auto"`` restores the built-in policy (sparse claims in RAM; see
    :func:`make_backend`).  Harnesses and the CLI use this to steer every
    solver in a run without threading a parameter through each call.
    """
    global _default_backend
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {BACKEND_NAMES}, got {name!r}"
        )
    _default_backend = name


@contextlib.contextmanager
def use_default_backend(name: str) -> Iterator[None]:
    """Temporarily set the default backend (context manager)."""
    previous = get_default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def _process_upgrade(data, reason: str,
                     n_workers: int | None = None) -> tuple[str, str]:
    """Upgrade an ``"auto"`` sparse resolution to ``process`` when the
    claim set is large, more than one CPU is usable, the pool would get
    more than one worker (``n_workers``, else the session default, else
    the CPU count) and continuous (median-kernel) claims are at least
    half of all claims; the reason names the condition that decided."""
    from .process import (
        PROCESS_AUTO_CLAIM_THRESHOLD,
        PROCESS_AUTO_CONTINUOUS_SHARE,
        available_workers,
        get_default_workers,
    )

    claims = continuous = 0
    for prop in data.properties:
        n = int(prop.n_observations())
        claims += n
        if prop.schema.is_continuous:
            continuous += n
    if claims < PROCESS_AUTO_CLAIM_THRESHOLD:
        return "sparse", (f"{reason}; {claims} claims < "
                          f"{PROCESS_AUTO_CLAIM_THRESHOLD} -> sparse")
    cpus = available_workers()
    if cpus <= 1:
        return "sparse", f"{reason}; {cpus} CPU usable -> sparse"
    if n_workers is None:
        n_workers = get_default_workers() or cpus
    if n_workers <= 1:
        # A one-worker pool only adds dispatch and copies to the
        # inline sparse solve.
        return "sparse", f"{reason}; {n_workers} worker requested -> sparse"
    share = continuous / claims
    if share < PROCESS_AUTO_CONTINUOUS_SHARE:
        return "sparse", (
            f"{reason}; continuous share {share:.2f} < "
            f"{PROCESS_AUTO_CONTINUOUS_SHARE:.2f} -> sparse"
        )
    return "process", (
        f"{reason}; {claims} claims >= {PROCESS_AUTO_CLAIM_THRESHOLD} "
        f"with {cpus} CPUs usable and continuous share {share:.2f} >= "
        f"{PROCESS_AUTO_CONTINUOUS_SHARE:.2f} -> process"
    )


def make_backend(data, backend: str = "auto", *,
                 n_workers: int | None = None,
                 chunk_claims: int | None = None) -> _BackendBase:
    """Resolve a dataset (or backend) plus a selector into a backend.

    ``backend="auto"`` follows the session default when one was set
    (:func:`set_default_backend`), and otherwise never builds dense
    storage: a :class:`~repro.data.claims_matrix.ClaimsMatrix` runs on
    as it is, and a :class:`~repro.data.table.MultiSourceDataset` is
    converted once with ``ClaimsMatrix.from_dense``, which wraps the
    matrices' cached claim views.  The footprint recommendation of
    :func:`repro.data.profile.recommended_backend` then keeps the claims
    in RAM on ``sparse``, or escalates to the out-of-core ``mmap``
    backend when the sparse projection exceeds the memory cap
    (:func:`repro.engine.mmap.resolved_memory_cap`).  A sparse
    recommendation is upgraded to the process backend when the claim
    count clears
    :data:`repro.engine.process.PROCESS_AUTO_CLAIM_THRESHOLD`, more than
    one CPU is usable, the pool would run more than one worker
    (``n_workers``, else :func:`~repro.engine.process.get_default_workers`,
    else the CPU count), and continuous (median-kernel) claims are at
    least :data:`repro.engine.process.PROCESS_AUTO_CONTINUOUS_SHARE` of
    all claims; the resolution names the condition that decided.
    ``"dense"`` is reached only by an explicit request (or session
    default).  Explicit ``"dense"``/``"sparse"``/``"process"``/
    ``"mmap"`` convert the representation when needed.
    An already-built backend passes through (or converts, when the
    explicit selector disagrees with it).

    The returned backend carries a ``resolution`` string explaining the
    choice; engines record it as ``backend_reason`` in their
    ``run_start`` trace record.  Whenever the built backend stores the
    claims differently than the input did — for datasets *and* for
    already-built backends alike — the resolution ends with
    ``" (converted from {dense|sparse})"``.

    ``n_workers`` is forwarded to :class:`ProcessBackend` and
    ``chunk_claims`` to :class:`~repro.engine.mmap.MmapBackend` when
    the resolution lands there (ignored otherwise).
    """
    from .mmap import MmapBackend, resolved_memory_cap
    from .process import ProcessBackend

    if backend not in BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {BACKEND_NAMES}, got {backend!r}"
        )
    reason = f"explicit {backend!r} request"
    if backend == "auto":
        session = get_default_backend()
        if session != "auto":
            backend = session
            reason = f"session default ({session})"
    source_storage = None
    if isinstance(data, _BackendBase):
        if backend == "auto" or backend == data.name:
            return data
        source_storage = _STORAGE.get(data.name)
        data = data.data
    elif isinstance(data, ClaimsMatrix):
        source_storage = "sparse"
    elif isinstance(data, MultiSourceDataset):
        source_storage = "dense"
    if backend == "auto":
        if isinstance(data, MultiSourceDataset):
            # Wraps the dense matrices' cached claim views: no copy, and
            # the sort/std caches survive from one solve to the next.
            data = ClaimsMatrix.from_dense(data)
        try:
            backend, reason = recommended_backend(
                data, memory_cap_bytes=resolved_memory_cap()
            )
        except (AttributeError, TypeError):
            # Dataset-shaped objects without footprint projections run
            # inline on their own claim views.
            backend = "sparse"
            reason = "sparse claim views (no footprint info)"
        else:
            if backend == "sparse":
                backend, reason = _process_upgrade(data, reason,
                                                   n_workers)
    if backend == "process":
        built: _BackendBase = ProcessBackend(data, n_workers=n_workers)
    elif backend == "mmap":
        built = MmapBackend(data, chunk_claims=chunk_claims)
    elif backend == "sparse":
        built = SparseBackend(data)
    else:
        built = DenseBackend(data)
    if source_storage is not None and source_storage != _STORAGE[backend]:
        reason = f"{reason} (converted from {source_storage})"
    built.resolution = reason
    return built
