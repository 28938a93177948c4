"""Chunked traversal of CSR claim arrays: aligned per-object shards.

The out-of-core backend (:mod:`repro.engine.mmap`) never holds a
property's full claim arrays in RAM.  Instead it walks them in
contiguous, claim-balanced *chunks*: each :class:`ClaimChunk` covers an
object range ``[object_start, object_stop)`` and the exact claim rows
``[claim_start, claim_stop)`` belonging to those objects, localized so
the ordinary :mod:`repro.core` losses and kernels run on it unchanged.

Chunk boundaries come from
:func:`repro.mapreduce.partitioner.range_partition` — the same
claim-balancing split the process backend uses for its worker shards —
so a chunk never cuts through an object's claim segment.  Every segment
kernel is segment-local (see
:func:`repro.core.kernels.segment_weighted_median`), which makes
chunk-at-a-time truth updates bit-identical to one full-view update.

The iterator *materializes* each chunk's claim slices into plain RAM
arrays (``np.array`` of the memmap slice), so at any moment only one
chunk of claim data is resident; the localized views carry
``object_idx - object_start`` and a rebased ``indptr`` exactly like
``repro.engine.process._WorkerState.shard``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .claims_matrix import ClaimView
from .encoding import CategoricalCodec
from .schema import PropertySchema

#: default claims per chunk of the out-of-core backend: 256k claims is
#: ~4 MiB of materialized value/index arrays — big enough that kernel
#: launch overhead is negligible, small enough that dozens of chunks
#: fit comfortably under any realistic memory cap.
DEFAULT_CHUNK_CLAIMS = 262_144


class ChunkProperty:
    """The duck-typed property surface losses need, over one chunk.

    Mirrors ``repro.engine.process._ShardProperty``: ``schema``,
    ``codec`` and ``claim_view()`` are all the loss layer touches, so
    chunked truth/deviation steps reuse the loss code verbatim.
    """

    __slots__ = ("schema", "codec", "_view")

    def __init__(self, schema: PropertySchema,
                 codec: CategoricalCodec | None, view: ClaimView) -> None:
        self.schema = schema
        self.codec = codec
        self._view = view

    def claim_view(self) -> ClaimView:
        """The localized (chunk-relative) claim view."""
        return self._view

    @property
    def n_objects(self) -> int:
        """Objects covered by this chunk."""
        return self._view.n_objects

    @property
    def n_sources(self) -> int:
        """Sources K (global — chunks never split the source axis)."""
        return self._view.n_sources


@dataclass(frozen=True)
class ClaimChunk:
    """One contiguous per-object shard of a property's claims.

    ``prop`` is the localized :class:`ChunkProperty` (object indices
    rebased to ``[0, object_stop - object_start)``); the four bounds
    say where the chunk sits in the full arrays, so chunk results can
    be written back at ``[object_start:object_stop]`` /
    ``[claim_start:claim_stop]``.
    """

    index: int
    n_chunks: int
    object_start: int
    object_stop: int
    claim_start: int
    claim_stop: int
    prop: ChunkProperty


def chunk_count(n_claims: int, chunk_claims: int) -> int:
    """Number of chunks a property of ``n_claims`` claims splits into.

    At least 1 — a claimless property is still one (empty) chunk, so
    its objects get truth columns like everyone else's.
    """
    if chunk_claims < 1:
        raise ValueError(f"chunk_claims must be >= 1, got {chunk_claims}")
    return max(1, -(-int(n_claims) // int(chunk_claims)))


def chunk_bounds(indptr: np.ndarray, chunk_claims: int) -> np.ndarray:
    """Claim-balanced object boundaries for chunked traversal.

    Delegates to :func:`repro.mapreduce.partitioner.range_partition`
    with ``ceil(n_claims / chunk_claims)`` parts, so no chunk holds
    much more than ``chunk_claims`` claims (single objects with more
    claims than that stay whole — chunks never split an object).
    """
    from ..mapreduce.partitioner import range_partition

    n_claims = int(indptr[-1]) if len(indptr) else 0
    return range_partition(indptr, chunk_count(n_claims, chunk_claims))


def iter_claim_chunks(prop, chunk_claims: int = DEFAULT_CHUNK_CLAIMS, *,
                      std: np.ndarray | None = None,
                      order: np.ndarray | None = None,
                      bounds: np.ndarray | None = None,
                      ) -> Iterator[ClaimChunk]:
    """Yield a property's claims as localized per-object chunks.

    ``prop`` is anything with ``schema`` / ``codec`` / ``claim_view()``
    (a :class:`~repro.data.claims_matrix.PropertyClaims`, possibly
    memmap-backed).  Each yielded chunk's claim arrays are fresh RAM
    copies — for memmap-backed properties this is the moment the pages
    are read from disk.  ``std`` optionally provides the property's
    full per-object entry std; its slice is installed in the chunk
    view's cache so continuous losses never recompute it.  ``order``
    likewise provides the property's full weighted-median order
    (:meth:`~repro.data.claims_matrix.ClaimView.median_order`, possibly
    a disk spill); each chunk view gets ``order[c0:c1] - c0``, which is
    the chunk's own lexsort (claims are object-major and the sort is
    stable), so median truth steps never sort a chunk.  Object ranges
    with no objects (duplicate bounds) are skipped; together the
    yielded chunks cover every object exactly once.
    """
    view = prop.claim_view()
    if bounds is None:
        bounds = chunk_bounds(view.indptr, chunk_claims)
    n_chunks = len(bounds) - 1
    for index in range(n_chunks):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        if lo == hi:
            continue
        c0, c1 = int(view.indptr[lo]), int(view.indptr[hi])
        local = ClaimView(
            values=np.array(view.values[c0:c1]),
            source_idx=np.array(view.source_idx[c0:c1]),
            object_idx=(np.array(view.object_idx[c0:c1]) - lo
                        ).astype(np.int32, copy=False),
            indptr=(view.indptr[lo:hi + 1] - c0).astype(np.int64),
            n_objects=hi - lo,
            n_sources=view.n_sources,
            _std=None if std is None else std[lo:hi],
            _median_order=(None if order is None
                           else np.asarray(order[c0:c1]) - c0),
        )
        yield ClaimChunk(
            index=index,
            n_chunks=n_chunks,
            object_start=lo,
            object_stop=hi,
            claim_start=c0,
            claim_stop=c1,
            prop=ChunkProperty(prop.schema, prop.codec, local),
        )


def chunked_entry_std(prop, chunk_claims: int = DEFAULT_CHUNK_CLAIMS,
                      ) -> np.ndarray:
    """Per-object entry std (Eqs. 13/15) computed one chunk at a time.

    Bit-identical to ``prop.claim_view().entry_std()`` —
    :func:`repro.core.kernels.segment_std` is a two-pass reduction
    within each object segment, so chunking at object boundaries
    cannot change any intermediate — but only one chunk's claim values
    are ever resident.  The result is installed in the full view's
    ``_std`` cache, so later ``entry_std()`` calls (loss initial
    states, inline fallback after degradation) are O(1).
    """
    from ..core.kernels import segment_std

    view = prop.claim_view()
    if view._std is not None:
        return view._std
    out = np.ones(view.n_objects, dtype=np.float64)
    for chunk in iter_claim_chunks(prop, chunk_claims):
        local = chunk.prop.claim_view()
        out[chunk.object_start:chunk.object_stop] = segment_std(
            local.values, local.indptr, group_of_claim=local.object_idx,
        )
    view._std = out
    return out
