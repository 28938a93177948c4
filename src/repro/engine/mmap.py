"""Out-of-core execution backend: CRH over memory-mapped claim chunks.

The ROADMAP's out-of-core item, and the step past the sparse and
process backends: nothing in the CRH math needs the claim arrays
resident in RAM — every truth/deviation formula is a per-property
segment kernel over the canonical claim view — so :class:`MmapBackend`
streams the claims instead of holding them:

* ``load_dataset(..., mmap=True)`` opens the ``claims.npz`` members as
  read-only :class:`numpy.memmap` arrays (no materialization; see
  :func:`repro.data.io.npz_member_memmaps`).
* :func:`repro.data.chunks.iter_claim_chunks` walks each property in
  contiguous, claim-balanced per-object chunks — the same
  :func:`~repro.mapreduce.partitioner.range_partition` split the
  process backend shards by — materializing one chunk of claim arrays
  at a time.
* The weighted-median order of each continuous property is sorted
  once per claim set, one chunk at a time, into a disk-backed spill
  that the full view caches (:func:`chunked_median_order`); the
  chunked initializer and every chunked truth step read their chunk's
  slice of it instead of sorting the chunk again.
* Truth steps run the unmodified :mod:`repro.core` losses on each
  localized chunk and write the per-object results into O(N) columns;
  per-claim deviations are spilled to a *disk-backed* scratch
  (:class:`numpy.memmap`, unlinked immediately so crashes cannot leak
  it), and the weight step reduces that full-length scratch through
  the unchanged
  :func:`repro.core.objective.per_source_deviations` /
  :func:`repro.core.kernels.accumulate_source_deviations` path.

That last point is the bit-identity mechanism (shared with the process
backend): the segment kernels are segment-local, so chunked truth
updates equal full-view updates exactly, and the per-source reduction
runs over the full deviation array in one ``bincount`` — never as
per-chunk partial sums, whose float re-association would change low
bits.  The source indices feeding that ``bincount`` are spilled to a
second disk-backed scratch as ``intp`` (``bincount``'s native index
type) at runner construction, so the reduction reads both operands
straight from disk instead of casting an O(claims) index copy onto the
heap every weight step.  Peak resident claim data is therefore
O(chunk), not O(claims): one chunk's value/index copies plus O(N)
columns/stds.

Failure contract (mirrors :class:`~repro.engine.process.ProcessBackend`):
any setup problem — unmappable archive (``mmap_fallback_reason``),
unsupported loss, scratch allocation failure — raises
:class:`MmapBackendError` from ``start_runner`` and the solver degrades
to inline sparse execution with the reason traced in ``run_start``; a
chunk read failing mid-run raises it from the step, and the solver
finishes inline, correcting ``backend``/``backend_reason`` in
``run_end``.

``backend="auto"`` resolves here when the projected footprint of the
*smaller* in-RAM representation still exceeds the memory cap
(:func:`resolved_memory_cap` — half of ``MemAvailable`` unless a
session override is set via :func:`set_memory_cap`).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import weakref
from typing import Iterator

import numpy as np

from ..data.chunks import (
    DEFAULT_CHUNK_CLAIMS,
    chunk_count,
    chunked_entry_std,
    iter_claim_chunks,
)
from ..data.claims_matrix import ClaimsMatrix, order_dtype
from ..data.table import MultiSourceDataset
from .backend import BackendExecutionError, _BackendBase

#: loss registry names the chunked runner evaluates — the same set the
#: process backend's workers support (the four paper losses plus the
#: claim-view-native huber and Bregman extensions); anything else
#: (text medoid, custom dense-only losses) degrades to inline sparse.
CHUNK_LOSSES = frozenset({"zero_one", "probability", "squared",
                          "absolute", "huber",
                          "bregman_squared_euclidean",
                          "bregman_itakura_saito",
                          "bregman_generalized_i"})


class MmapBackendError(BackendExecutionError):
    """An out-of-core setup or chunk-read failure.

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
# the chunked runner
# ----------------------------------------------------------------------

def _release_scratch(path: str | None) -> None:
    """Remove the spill file if the eager unlink could not (idempotent)."""
    if path is None:
        return
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - already unlinked
        pass


def _spill_file(prefix: str, dtype, total: int, owner):
    """An anonymous disk-backed array: mapped, then unlinked.

    Returns ``(memmap, path)`` where ``path`` is ``None`` once the
    eager unlink succeeded (the mapping alone keeps the file alive), or
    the still-linked path, removed by a finalizer on ``owner``.
    """
    fd, path = tempfile.mkstemp(prefix=prefix, suffix=".bin")
    os.close(fd)
    mapped = np.memmap(path, dtype=dtype, mode="w+", shape=(total,))
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - e.g. Windows
        weakref.finalize(owner, _release_scratch, path)
        return mapped, path
    return mapped, None


def chunked_median_order(prop, chunk_claims: int) -> np.ndarray | None:
    """The property's weighted-median order, sorted one chunk at a time.

    Equal to ``prop.claim_view().median_order()`` — a chunk's own
    lexsort shifted by its first claim row is the full lexsort's slice,
    because claims are object-major and the sort is stable — but only
    one chunk's claims are resident while sorting, and the result is a
    disk-backed spill rather than an O(claims) heap array.  The spill is
    installed in the full view's cache, as
    :func:`~repro.data.chunks.chunked_entry_std` installs the std, so
    the chunked initializer, every chunked truth step, later runs and
    an inline fallback all read it; a view that already holds an order
    returns that.  ``None`` when no spill file can be created: chunks
    then sort themselves, with the same results.
    """
    view = prop.claim_view()
    if view._median_order is None and view.n_claims:
        try:
            spill, _ = _spill_file("repro-mmap-order-",
                                   order_dtype(view.n_claims),
                                   view.n_claims, view)
        except OSError:
            return None
        for chunk in iter_claim_chunks(prop, chunk_claims):
            np.add(chunk.prop.claim_view().median_order(),
                   chunk.claim_start, dtype=spill.dtype,
                   out=spill[chunk.claim_start:chunk.claim_stop])
        view._median_order = spill
    return view.median_order()


class _ReductionView:
    """The one field the weight-step reduction reads from a claim view."""

    __slots__ = ("source_idx",)

    def __init__(self, source_idx) -> None:
        self.source_idx = source_idx


class _ReductionProperty:
    """A claim-view holder whose ``source_idx`` is the int64 spill.

    :func:`repro.core.objective.per_source_deviations` only touches
    ``prop.claim_view().source_idx`` when the per-claim deviations are
    supplied by a callable; pointing that at a disk-backed ``intp``
    copy lets ``np.bincount`` consume the buffer directly instead of
    casting the int32 indices to a fresh O(claims) heap array every
    weight step.
    """

    __slots__ = ("_view",)

    def __init__(self, source_idx) -> None:
        self._view = _ReductionView(source_idx)

    def claim_view(self) -> _ReductionView:
        """The reduction-only view (``source_idx`` only)."""
        return self._view


class _ReductionDataset:
    """Dataset surface for the scratch-backed per-source reduction."""

    __slots__ = ("n_sources", "properties")

    def __init__(self, n_sources: int, properties) -> None:
        self.n_sources = n_sources
        self.properties = tuple(properties)


class _MmapRunner:
    """Chunk-at-a-time truth/deviation execution for one loss config.

    Speaks the same runner protocol as
    ``repro.engine.process._ProcessRunner`` (``seed`` / ``truth_step``
    / ``per_source`` / ``parallel_efficiency`` / ``close``), so the
    solver drives both through one code path.  There is no pool: work
    happens in-process, one chunk resident at a time.
    """

    def __init__(self, data: ClaimsMatrix, losses, chunk_claims: int,
                 fail_after: int | None = None) -> None:
        self._data = data
        self._losses = list(losses)
        self.chunk_claims = int(chunk_claims)
        self._fail_after = fail_after
        self._chunks_read = 0
        self._scratch_fresh = False
        self._scratch: np.memmap | None = None
        self._scratch_path: str | None = None
        self._idx_spill: np.memmap | None = None
        self._idx_spill_path: str | None = None

        #: entry stds (Eqs. 13/15) for continuous-loss properties,
        #: chunk-computed and installed in the full views' caches so
        #: neither losses nor the inline fallback recompute them from
        #: the full (possibly memory-mapped) value arrays; median
        #: orders of the properties whose loss reads one, likewise.
        self._stds: list[np.ndarray | None] = []
        self._orders: list[np.ndarray | None] = []
        offsets: list[int] = []
        total = 0
        for prop, loss in zip(data.properties, losses):
            self._stds.append(
                chunked_entry_std(prop, self.chunk_claims)
                if loss.uses_entry_std else None
            )
            self._orders.append(
                chunked_median_order(prop, self.chunk_claims)
                if loss.uses_median_order else None
            )
            offsets.append(total)
            total += prop.n_claims
        self.n_chunks = max(
            (chunk_count(p.n_claims, self.chunk_claims)
             for p in data.properties),
            default=1,
        )

        # Full-length per-claim deviation scratch, spilled to disk:
        # chunks write their slice, the weight step reduces the whole
        # array in canonical order (the bit-identity requirement).  A
        # sibling spill holds the source indices as intp — bincount's
        # native index type — filled chunk-wise once here, so the
        # per-iteration reduction never casts an O(claims) index copy
        # onto the heap.  Both files are unlinked right away — the
        # mappings keep them alive — so no crash can leak them; a
        # finalizer covers platforms where the eager unlink fails.
        if total:
            try:
                self._scratch, self._scratch_path = _spill_file(
                    "repro-mmap-dev-", np.float64, total, self)
                self._idx_spill, self._idx_spill_path = _spill_file(
                    "repro-mmap-idx-", np.intp, total, self)
            except OSError as error:
                raise MmapBackendError(
                    f"deviation scratch allocation failed: {error}"
                ) from error
        self._dev_slices = [
            None if self._scratch is None
            else self._scratch[off:off + prop.n_claims]
            for off, prop in zip(offsets, data.properties)
        ]
        if self._idx_spill is None:
            self._reduction_data = data
        else:
            for off, prop in zip(offsets, data.properties):
                source_idx = prop.claim_view().source_idx
                for start in range(0, prop.n_claims, self.chunk_claims):
                    stop = min(start + self.chunk_claims, prop.n_claims)
                    self._idx_spill[off + start:off + stop] = \
                        source_idx[start:stop]
            self._reduction_data = _ReductionDataset(
                data.n_sources,
                (_ReductionProperty(
                    self._idx_spill[off:off + prop.n_claims])
                 for off, prop in zip(offsets, data.properties)),
            )

    # ------------------------------------------------------------------
    def _iter_chunks(self, index: int):
        """Localized chunks of property ``index``, with crash injection
        and read-error mapping."""
        prop = self._data.properties[index]
        iterator = iter_claim_chunks(prop, self.chunk_claims,
                                     std=self._stds[index],
                                     order=self._orders[index])
        while True:
            if (self._fail_after is not None
                    and self._chunks_read >= self._fail_after):
                raise MmapBackendError(
                    "injected chunk read failure (fail_after)"
                )
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            except (OSError, ValueError) as error:
                raise MmapBackendError(
                    f"chunk read of property "
                    f"{prop.schema.name!r} failed: {error}"
                ) from error
            self._chunks_read += 1
            yield chunk

    def seed(self, states) -> None:
        """Accept the initial truth states (chunk runs are stateless —
        deviations are computed from whatever states the solver
        passes — so this only marks the scratch stale)."""
        self._scratch_fresh = False

    def truth_step(self, weights) -> list:
        """One chunked truth round; returns fresh per-property states.

        Each chunk's truth update *and* its deviations under the new
        truths happen while the chunk is resident, so the following
        :meth:`per_source` needs no second pass over the claims.
        """
        from ..core.losses import TruthState

        weights = np.asarray(weights, dtype=np.float64)
        states = []
        for index, (prop, loss) in enumerate(zip(self._data.properties,
                                                 self._losses)):
            dev = self._dev_slices[index]
            columns: list[np.ndarray] = []
            distributions: list[np.ndarray] = []
            for chunk in self._iter_chunks(index):
                updated = loss.update_truth(chunk.prop, weights)
                columns.append(updated.column)
                if updated.distribution is not None:
                    distributions.append(updated.distribution)
                dev[chunk.claim_start:chunk.claim_stop] = \
                    loss.claim_deviations(updated, chunk.prop)
            if columns:
                column = np.concatenate(columns)
                distribution = (np.concatenate(distributions, axis=1)
                                if distributions else None)
            else:
                # Property without objects: the full update is free.
                empty = loss.update_truth(prop, weights)
                column, distribution = empty.column, empty.distribution
            aux = ({} if self._stds[index] is None
                   else {"std": self._stds[index]})
            states.append(TruthState(column=column,
                                     distribution=distribution,
                                     aux=aux))
        self._scratch_fresh = True
        return states

    def _fill_deviations(self, states) -> None:
        """Chunk-fill the scratch under the *given* states (the initial
        weight step, before any chunked truth round ran)."""
        from ..core.losses import TruthState

        for index, (loss, state) in enumerate(zip(self._losses, states)):
            dev = self._dev_slices[index]
            std = self._stds[index]
            for chunk in self._iter_chunks(index):
                lo, hi = chunk.object_start, chunk.object_stop
                shard_state = TruthState(
                    column=state.column[lo:hi],
                    distribution=(None if state.distribution is None
                                  else state.distribution[:, lo:hi]),
                    aux={} if std is None else {"std": std[lo:hi]},
                )
                dev[chunk.claim_start:chunk.claim_stop] = \
                    loss.claim_deviations(shard_state, chunk.prop)

    def per_source(self, states, options) -> np.ndarray:
        """Per-source aggregate deviations of ``states``.

        The reduction runs the unmodified
        :func:`repro.core.objective.per_source_deviations` over the
        full-length disk-backed scratch — identical summation order,
        identical bits; only the element-wise deviation pass was done
        chunk-at-a-time.  The dataset handed to the reduction swaps in
        the intp index spill (same values, same order — bincount just
        reads it without casting).
        """
        from ..core.objective import per_source_deviations

        if not self._scratch_fresh:
            self._fill_deviations(states)
            self._scratch_fresh = True

        def from_scratch(index, prop, loss, state):
            return self._dev_slices[index]

        return per_source_deviations(self._reduction_data, self._losses,
                                     states, options,
                                     claim_deviations=from_scratch)

    def parallel_efficiency(self) -> None:
        """Chunked execution is serial in-process: no pool to rate."""
        return None

    def close(self) -> None:
        """Drop the deviation and index spill mappings (idempotent)."""
        self._scratch = None
        self._idx_spill = None
        self._dev_slices = []
        self._reduction_data = self._data
        for attr in ("_scratch_path", "_idx_spill_path"):
            path = getattr(self, attr)
            setattr(self, attr, None)
            if path is not None and os.path.exists(path):
                _release_scratch(path)


class MmapBackend(_BackendBase):
    """Backend streaming CSR claim chunks instead of holding them.

    ``data`` stays an ordinary
    :class:`~repro.data.claims_matrix.ClaimsMatrix` — ideally one whose
    claim arrays are the read-only memmaps of
    ``load_dataset(..., mmap=True)``, in which case peak resident claim
    data is O(chunk); an in-RAM matrix also runs chunked (bounded
    temporaries, spilled deviation scratch), it just cannot shed its
    own storage.  Results are bit-identical to the dense, sparse and
    process backends.

    Parameters
    ----------
    chunk_claims:
        Claims per chunk (default
        :data:`repro.data.chunks.DEFAULT_CHUNK_CLAIMS`); the knob
        behind ``CRHConfig(chunk_claims=...)``.
    fail_after:
        Test hook: chunk reads with a lifetime ordinal ``>=
        fail_after`` raise, exercising the mid-run degradation path.
    """

    name = "mmap"
    #: marks backends whose :meth:`start_runner` the solver drives
    supports_runner = True

    def __init__(self, data, chunk_claims: int | None = None,
                 fail_after: int | None = None) -> None:
        if isinstance(data, MultiSourceDataset):
            data = ClaimsMatrix.from_dense(data)
        super().__init__(data)
        if chunk_claims is None:
            chunk_claims = DEFAULT_CHUNK_CLAIMS
        if chunk_claims < 1:
            raise ValueError(
                f"chunk_claims must be >= 1, got {chunk_claims}"
            )
        self.chunk_claims = int(chunk_claims)
        self._fail_after = fail_after
        self._runner: _MmapRunner | None = None

    @property
    def n_chunks(self) -> int:
        """Chunks per pass: the largest property's chunk count."""
        return max(
            (chunk_count(p.n_claims, self.chunk_claims)
             for p in self.data.properties),
            default=1,
        )

    def initial_columns(self, initializer, rng=None) -> list[np.ndarray]:
        """Chunked truth initialization (Section 2.5) — the solver's
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
        columns: list[np.ndarray] = []
        for prop in self.data.properties:
            order = None
            if prop.schema.is_continuous:
                chunked_entry_std(prop, self.chunk_claims)
                order = chunked_median_order(prop, self.chunk_claims)
            pieces: list[np.ndarray] = []
            for chunk in iter_claim_chunks(prop, self.chunk_claims,
                                           order=order):
                bundle = _SinglePropertyDataset(chunk.prop)
                piece = (initializer(bundle, rng=rng) if rng is not None
                         else initializer(bundle))
                pieces.append(piece[0])
            if pieces:
                columns.append(np.concatenate(pieces))
            else:
                bundle = _SinglePropertyDataset(prop)
                piece = (initializer(bundle, rng=rng) if rng is not None
                         else initializer(bundle))
                columns.append(piece[0])
        return columns

    def start_runner(self, losses) -> _MmapRunner:
        """A fresh chunked runner for ``losses``.

        Raises :class:`MmapBackendError` when the dataset could not be
        memory-mapped (``mmap_fallback_reason``), a loss has no chunked
        implementation, or the deviation scratch cannot be allocated;
        the solver degrades to inline sparse execution in that case.
        """
        reason = getattr(self.data, "mmap_fallback_reason", None)
        if reason is not None:
            raise MmapBackendError(
                f"dataset loaded without memmaps: {reason}"
            )
        unsupported = [loss.name for loss in losses
                       if loss.name not in CHUNK_LOSSES]
        if unsupported:
            raise MmapBackendError(
                f"losses {unsupported} have no chunked implementation "
                f"(supported: {sorted(CHUNK_LOSSES)})"
            )
        self.close()
        runner = _MmapRunner(self.data, losses, self.chunk_claims,
                             fail_after=self._fail_after)
        self._runner = runner
        return runner

    def close(self) -> None:
        """Release the runner's deviation scratch (idempotent)."""
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.close()


class _SinglePropertyDataset:
    """Minimal dataset surface for initializers: just ``properties``."""

    __slots__ = ("properties",)

    def __init__(self, prop) -> None:
        self.properties = (prop,)
