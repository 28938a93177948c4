"""Out-of-core execution backend: CRH over memory-mapped claim chunks.

Nothing in the CRH math needs the claim arrays resident in RAM: every
truth/deviation formula is a per-property segment kernel over the
canonical claim view.  So :class:`MmapBackend` runs the
range-partitioned core of :mod:`repro.engine.sharded` in-process, one
chunk (an object range of about ``chunk_claims`` claims) resident at a
time:

* ``load_dataset(..., mmap=True)`` opens the ``claims.npz`` members as
  read-only :class:`numpy.memmap` arrays (no materialization; see
  :func:`repro.data.io.npz_member_memmaps`).
* Each chunk's claim arrays are copied into RAM when the chunk runs and
  dropped afterwards.
* The entry std and the weighted-median order of each continuous
  property are computed once per claim set, one chunk at a time
  (:func:`chunked_entry_std`, :func:`chunked_median_order`), and
  installed in the full view's caches; the order goes to a disk-backed
  spill, so the chunked initializer, every chunk and an inline
  fallback read it and nothing sorts twice.
* Per-claim deviations go to a *disk-backed* scratch
  (:class:`numpy.memmap`, unlinked immediately so crashes cannot leak
  it), and the source indices the weight step's ``bincount`` reads to a
  second one as ``intp`` (its native index type), filled once, so the
  reduction reads both operands from disk instead of casting an
  O(claims) index copy onto the heap every weight step.

Peak resident claim data is therefore O(chunk), not O(claims): one
chunk's value/index copies plus O(N) columns and stds.  Setup problems
(an unmappable archive, ``mmap_fallback_reason``; an unsupported loss;
a spill that cannot be created) raise :class:`MmapBackendError` from
``start_runner``, and a chunk failing mid-run raises it from the step;
the solver degrades to inline sparse execution either way and traces
the reason.

``backend="auto"`` resolves here when the projected footprint of the
sparse claims exceeds the memory cap (:func:`resolved_memory_cap`: half
of ``MemAvailable`` unless a session override is set via
:func:`set_memory_cap`); see
:func:`repro.data.profile.recommended_backend`.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import weakref
from typing import Iterator

import numpy as np

from ..data.claims_matrix import order_dtype
from ..mapreduce.partitioner import range_partition
from .backend import BackendExecutionError
from .sharded import RUNNER_LOSSES, Lane, RunnerBackend, ShardedRunner, \
    run_range, truth_dtype

#: the mmap runner's loss set, the same set as every range runner
CHUNK_LOSSES = RUNNER_LOSSES

#: default claims per chunk: 256k claims is ~4 MiB of materialized
#: value/index arrays, big enough that kernel launch overhead is
#: negligible, small enough that dozens of chunks fit comfortably under
#: any realistic memory cap.
DEFAULT_CHUNK_CLAIMS = 262_144


class MmapBackendError(BackendExecutionError):
    """An out-of-core setup or chunk failure.

    Like :class:`~repro.engine.process.ProcessBackendError`, the solver
    treats this as a degradation signal: it abandons the chunked
    runner and finishes the run inline on the sparse claim storage,
    recording the reason in the trace.
    """


# ----------------------------------------------------------------------
# memory cap: when "auto" escalates to out-of-core
# ----------------------------------------------------------------------

_memory_cap: int | None = None


def available_memory_bytes() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo``, or ``None`` off-Linux."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover
        return None
    return None  # pragma: no cover - MemAvailable missing


def get_memory_cap() -> int | None:
    """The session memory-cap override in bytes (``None``: autodetect)."""
    return _memory_cap


def set_memory_cap(n_bytes: int | None) -> None:
    """Set the byte budget ``backend="auto"`` compares footprints to.

    Projected claim footprints above the cap resolve to the mmap
    backend.  ``None`` restores autodetection (half of the machine's
    available memory).  Tests use a tiny cap to force the out-of-core
    path on small datasets.
    """
    global _memory_cap
    if n_bytes is not None and n_bytes < 1:
        raise ValueError(f"memory cap must be >= 1 byte, got {n_bytes}")
    _memory_cap = n_bytes


@contextlib.contextmanager
def use_memory_cap(n_bytes: int | None) -> Iterator[None]:
    """Temporarily set the memory cap (context manager)."""
    previous = get_memory_cap()
    set_memory_cap(n_bytes)
    try:
        yield
    finally:
        set_memory_cap(previous)


def resolved_memory_cap() -> int | None:
    """The effective cap: the session override, else half of available
    memory (leaving headroom for states, temporaries and everyone
    else), else ``None`` (no cap — never auto-resolve to mmap)."""
    if _memory_cap is not None:
        return _memory_cap
    available = available_memory_bytes()
    return None if available is None else available // 2


# ----------------------------------------------------------------------
# chunks and spills
# ----------------------------------------------------------------------

def chunk_count(n_claims: int, chunk_claims: int) -> int:
    """Number of chunks a property of ``n_claims`` claims splits into.

    At least 1: a claimless property is still one (empty) chunk, so its
    objects get truth columns like everyone else's.
    """
    if chunk_claims < 1:
        raise ValueError(f"chunk_claims must be >= 1, got {chunk_claims}")
    return max(1, -(-int(n_claims) // int(chunk_claims)))


def chunk_lane(prop, chunk_claims: int, **arrays) -> Lane:
    """A read-only lane over ``prop`` cut into claim-balanced chunks of
    about ``chunk_claims`` claims (a single object with more claims
    stays whole); ``arrays`` are :class:`~repro.engine.sharded.Lane`'s
    ``std``/``order``."""
    view = prop.claim_view()
    bounds = range_partition(view.indptr,
                             chunk_count(view.n_claims, chunk_claims))
    return Lane(prop, bounds, **arrays)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - already unlinked
        pass


def _spill_file(prefix: str, dtype, total: int) -> np.ndarray:
    """An anonymous disk-backed array: mapped, then unlinked (the
    mapping alone keeps the file alive).  Where the eager unlink fails,
    a finalizer removes the file once the mapping is collected."""
    if not total:
        return np.empty(0, dtype=dtype)
    fd, path = tempfile.mkstemp(prefix=prefix, suffix=".bin")
    os.close(fd)
    mapped = np.memmap(path, dtype=dtype, mode="w+", shape=(total,))
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - e.g. Windows
        weakref.finalize(mapped, _unlink, path)
    return mapped


def chunked_entry_std(prop, chunk_claims: int = DEFAULT_CHUNK_CLAIMS,
                      ) -> np.ndarray:
    """Per-object entry std (Eqs. 13/15) computed one chunk at a time.

    Bit-identical to ``prop.claim_view().entry_std()``:
    :func:`repro.core.kernels.segment_std` is a two-pass reduction
    within each object segment, so chunking at object boundaries cannot
    change any intermediate, but only one chunk's claim values are ever
    resident.  The result is installed in the full view's ``_std``
    cache, so later ``entry_std()`` calls (loss initial states, inline
    fallback after degradation) are O(1).
    """
    from ..core.kernels import segment_std

    view = prop.claim_view()
    if view._std is None:
        out = np.ones(view.n_objects, dtype=np.float64)
        for lo, hi, _, _, chunk in chunk_lane(prop, chunk_claims).ranges():
            local = chunk.claim_view()
            out[lo:hi] = segment_std(local.values, local.indptr,
                                     group_of_claim=local.object_idx)
        view._std = out
    return view._std


def chunked_median_order(prop, chunk_claims: int) -> np.ndarray | None:
    """The property's weighted-median order, sorted one chunk at a time.

    Equal to ``prop.claim_view().median_order()`` (a chunk's own
    lexsort shifted by its first claim row is the full lexsort's slice,
    because claims are object-major and the sort is stable), but only
    one chunk's claims are resident while sorting, and the result is a
    disk-backed spill rather than an O(claims) heap array, installed in
    the full view's cache like :func:`chunked_entry_std`'s std.  A view
    that already holds an order returns that.  ``None`` when no spill
    file can be created: chunks then sort themselves, with the same
    results.
    """
    view = prop.claim_view()
    if view._median_order is None and view.n_claims:
        try:
            spill = _spill_file("repro-mmap-order-",
                                order_dtype(view.n_claims), view.n_claims)
        except OSError:
            return None
        for _, _, c0, c1, chunk in chunk_lane(prop, chunk_claims).ranges():
            np.add(chunk.claim_view().median_order(), c0,
                   dtype=spill.dtype, out=spill[c0:c1])
        view._median_order = spill
    return view.median_order()


# ----------------------------------------------------------------------
# the chunked runner
# ----------------------------------------------------------------------

class _MmapRunner(ShardedRunner):
    """Chunk-at-a-time truth/deviation execution for one loss config:
    the sharded core's ranges run in-process, one at a time."""

    error = MmapBackendError
    injected = "injected chunk read failure (fail_after)"

    def __init__(self, data, losses, chunk_claims: int,
                 fail_after: int | None = None) -> None:
        self.n_chunks = max((chunk_count(p.n_claims, chunk_claims)
                             for p in data.properties), default=1)
        super().__init__(data, losses, self.n_chunks, fail_after)
        total = sum(p.n_claims for p in data.properties)
        try:
            scratch = _spill_file("repro-mmap-dev-", np.float64, total)
            index_spill = _spill_file("repro-mmap-idx-", np.intp, total)
        except OSError as error:
            raise MmapBackendError(
                f"deviation scratch allocation failed: {error}"
            ) from error
        offset = 0
        for prop, loss, bounds in zip(data.properties, losses,
                                      self._bounds):
            view = prop.claim_view()
            n, c = view.n_objects, view.n_claims
            for start in range(0, c, chunk_claims):
                stop = min(start + chunk_claims, c)
                index_spill[offset + start:offset + stop] = \
                    view.source_idx[start:stop]
            self._source_idx.append(index_spill[offset:offset + c])
            self._lanes.append(Lane(
                prop, bounds, loss,
                std=(chunked_entry_std(prop, chunk_claims)
                     if loss.uses_entry_std else None),
                order=(chunked_median_order(prop, chunk_claims)
                       if loss.uses_median_order else None),
                truth=np.empty(n, dtype=truth_dtype(prop)),
                distribution=(np.empty((len(prop.codec), n))
                              if loss.name == "probability" else None),
                dev=scratch[offset:offset + c],
            ))
            offset += c

    def _execute(self, mode: str, weights, failures) -> None:
        for r, failure in enumerate(failures):
            run_range(self._lanes, r, mode, weights, failure)


class MmapBackend(RunnerBackend):
    """Backend streaming CSR claim chunks instead of holding them.

    ``data`` stays an ordinary
    :class:`~repro.data.claims_matrix.ClaimsMatrix`, ideally one whose
    claim arrays are the read-only memmaps of
    ``load_dataset(..., mmap=True)``, in which case peak resident claim
    data is O(chunk); an in-RAM matrix also runs chunked (bounded
    temporaries, spilled deviation scratch), it just cannot shed its
    own storage.  Results are bit-identical to the dense, sparse and
    process backends.

    Parameters
    ----------
    chunk_claims:
        Claims per chunk (default :data:`DEFAULT_CHUNK_CLAIMS`); the
        knob behind ``CRHConfig(chunk_claims=...)``.
    fail_after:
        Test hook: chunks with a lifetime ordinal ``>= fail_after``
        raise, exercising the mid-run degradation path.
    """

    name = "mmap"

    def __init__(self, data, chunk_claims: int | None = None,
                 fail_after: int | None = None) -> None:
        super().__init__(data, fail_after)
        if chunk_claims is None:
            chunk_claims = DEFAULT_CHUNK_CLAIMS
        if chunk_claims < 1:
            raise ValueError(
                f"chunk_claims must be >= 1, got {chunk_claims}"
            )
        self.chunk_claims = int(chunk_claims)

    def initial_columns(self, initializer, rng=None) -> list[np.ndarray]:
        """Chunked truth initialization (Section 2.5): the solver's
        backend-aware replacement for ``initializer(dataset)``.

        Runs the unmodified initializer on one localized single-property
        chunk at a time (segment kernels are segment-local, and the
        random initializer consumes its generator in canonical claim
        order, so chunked columns equal full-dataset columns bitwise),
        and pre-populates the entry-std and median-order caches of
        continuous properties chunk-wise, so no later ``entry_std()``
        call streams the full value arrays through kernel temporaries
        and neither the median initializer nor the runner sorts a chunk.
        """
        kwargs = {} if rng is None else {"rng": rng}
        columns: list[np.ndarray] = []
        for prop in self.data.properties:
            order = None
            if prop.schema.is_continuous:
                chunked_entry_std(prop, self.chunk_claims)
                order = chunked_median_order(prop, self.chunk_claims)
            lane = chunk_lane(prop, self.chunk_claims, order=order)
            pieces = [initializer(_SinglePropertyDataset(chunk), **kwargs)[0]
                      for _, _, _, _, chunk in lane.ranges()]
            columns.append(np.concatenate(pieces) if pieces else
                           initializer(_SinglePropertyDataset(prop),
                                       **kwargs)[0])
        return columns

    def _make_runner(self, losses) -> _MmapRunner:
        reason = getattr(self.data, "mmap_fallback_reason", None)
        if reason is not None:
            raise MmapBackendError(
                f"dataset loaded without memmaps: {reason}"
            )
        return _MmapRunner(self.data, losses, self.chunk_claims,
                           fail_after=self._fail_after)


class _SinglePropertyDataset:
    """Minimal dataset surface for initializers: just ``properties``."""

    __slots__ = ("properties",)

    def __init__(self, prop) -> None:
        self.properties = (prop,)
