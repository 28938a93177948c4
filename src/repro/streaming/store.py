"""Appendable claim storage for the truth-serving layer.

The serving stack (``repro.streaming.service``) needs to absorb claims
one at a time without paying a reallocation per arrival.  This module
provides the two pieces that make that cheap:

* :class:`GrowableArray` — an append-only numpy array with amortized
  doubling growth (O(1) amortized appends, O(log n) reallocations),
  shared by the :class:`ClaimStore` claim columns and the
  :class:`~repro.streaming.icrh.IncrementalCRH` per-source accumulators.
* :class:`ClaimStore` — a per-object claim index: every arriving
  :class:`Claim` lands in flat per-property arrays in *insertion order*,
  sources and objects are registered on first appearance, and every
  touched object joins a **dirty set** the recompute planner drains.

Claim ordering contract
-----------------------
``dataset_for`` materializes chunks with ``canonicalize=False``: claims
are stable-sorted by object only, so the *within-object* claim order is
the ingestion order.  Execution kernels sum per object and per source in
claim order, which makes this the serving-side half of the equivalence
guarantee: a stream ingested in the canonical order (time-major, then
object, then ascending source index) re-resolves bit-identically to the
batch :func:`~repro.streaming.icrh.icrh` oracle.  Duplicate claims for
the same (source, object, property) cell keep the *latest* arrival,
matching :class:`~repro.data.table.DatasetBuilder` overwrite semantics.

Assembly cost
-------------
Per property the store keeps each object's *first claim position*, so
``dataset_for`` scans only the claims stored since the oldest selected
object's first claim: every claim of a selected object sits at or after
that position.  For an in-order stream that is the open window; late
data reaches back as far as it is late.  Selecting an ancient object —
or every object, as a full recompute or :meth:`ClaimStore.to_claims_matrix`
does — scans the whole store.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Sequence

import numpy as np

from ..data.claims_matrix import ClaimsMatrix, PropertyClaims
from ..data.encoding import MISSING_CODE, CategoricalCodec
from ..data.schema import DatasetSchema

#: ``ClaimStore._first`` entry of an object with no claim for a property
_NO_CLAIM = np.iinfo(np.int64).max


class Claim(NamedTuple):
    """One arriving observation: a source's value for an object entry."""

    #: identifier of the claimed object (dataset ``object_ids`` domain)
    object_id: Hashable
    #: name of the claimed property (must exist in the store's schema)
    property_name: str
    #: identifier of the claiming source
    source_id: Hashable
    #: claimed value — a label for codec-backed properties, else a float
    value: object
    #: event time of the claim; drives window sealing in the service
    timestamp: float


class GrowableArray:
    """Append-only numpy array with amortized doubling growth.

    ``np.append`` reallocates the whole array per call — O(n) per append,
    O(n^2) for a stream.
    Appends write into spare capacity and the buffer doubles only when
    full, so ``n`` appends cost O(n) amortized with O(log n)
    reallocations (counted in :attr:`growth_events` for tests).
    """

    def __init__(self, dtype, fill=0, capacity: int = 16) -> None:
        self._dtype = np.dtype(dtype)
        self._fill = fill
        self._buf = np.full(max(int(capacity), 1), fill, dtype=self._dtype)
        self._n = 0
        self._shared = False
        #: number of buffer reallocations performed so far
        self.growth_events = 0
        #: copy-on-write buffer copies forced by :meth:`writable`
        self.cow_copies = 0

    def __len__(self) -> int:
        return self._n

    @property
    def data(self) -> np.ndarray:
        """View of the live prefix (no copy; invalidated by growth)."""
        return self._buf[:self._n]

    def freeze_view(self) -> np.ndarray:
        """A read-only view of the live prefix, stable under later writes.

        Marks the buffer *shared*: appends beyond the frozen length stay
        invisible to the view, and any later in-place mutation must go
        through :meth:`writable`, which copies the buffer first.  This
        is the copy-on-write primitive behind lock-free truth-snapshot
        reads — a frozen view never observes a torn write.
        """
        view = self._buf[:self._n]
        view.flags.writeable = False
        self._shared = True
        return view

    def writable(self) -> np.ndarray:
        """The live prefix for in-place mutation, copying if shared.

        While no :meth:`freeze_view` is outstanding this is exactly
        :attr:`data`; after one, the first mutation pays a single buffer
        copy (counted in :attr:`cow_copies`) so published views keep
        their values.
        """
        if self._shared:
            self._buf = self._buf.copy()
            self._shared = False
            self.cow_copies += 1
        return self._buf[:self._n]

    def _reserve(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more elements (doubling)."""
        need = self._n + extra
        if need <= self._buf.size:
            return
        capacity = self._buf.size
        while capacity < need:
            capacity *= 2
        grown = np.full(capacity, self._fill, dtype=self._dtype)
        grown[:self._n] = self._buf[:self._n]
        self._buf = grown
        self._shared = False
        self.growth_events += 1

    def append(self, value) -> int:
        """Append one element; returns its index."""
        self._reserve(1)
        self._buf[self._n] = value
        self._n += 1
        return self._n - 1

    def extend(self, values) -> None:
        """Append a whole array of elements at once."""
        values = np.asarray(values)
        if values.size == 0:
            return
        self._reserve(values.size)
        self._buf[self._n:self._n + values.size] = values
        self._n += values.size

    def resize_to(self, n: int) -> None:
        """Grow the live length to ``n``, filling with the fill value."""
        if n < self._n:
            raise ValueError(f"cannot shrink from {self._n} to {n}")
        self._reserve(n - self._n)
        self._n = n


class ClaimStore:
    """Per-object claim index with first-appearance registries.

    Claims append to flat per-property arrays (values, source index,
    object index) in arrival order; sources and objects get dense
    indices when first seen.  Every touched object index is added to
    :attr:`dirty` — the invalidation contract the service's recompute
    planner drains after each ingest batch.  Per property, each object's
    first claim position bounds the claims :meth:`dataset_for` scans.
    """

    def __init__(self, schema: DatasetSchema,
                 codecs=None) -> None:
        self.schema = schema
        self._prop_index = {p.name: m for m, p in enumerate(schema)}
        self._codecs: dict[str, CategoricalCodec] = {}
        codecs = dict(codecs or {})
        for prop in schema:
            if prop.uses_codec:
                seed = codecs.get(prop.name)
                labels = seed.labels if seed is not None else ()
                self._codecs[prop.name] = CategoricalCodec(labels)
        self._values: list[GrowableArray] = []
        self._src: list[GrowableArray] = []
        self._obj: list[GrowableArray] = []
        #: per property, each object's first claim position in that
        #: property's columns (``_NO_CLAIM`` while it has none)
        self._first: list[GrowableArray] = []
        for prop in schema:
            if prop.uses_codec:
                self._values.append(
                    GrowableArray(np.int32, MISSING_CODE))
            else:
                self._values.append(GrowableArray(np.float64, np.nan))
            self._src.append(GrowableArray(np.int32, 0))
            self._obj.append(GrowableArray(np.int32, 0))
            self._first.append(GrowableArray(np.int64, _NO_CLAIM))
        self._source_ids: list[Hashable] = []
        self._source_index: dict[Hashable, int] = {}
        self._object_ids: list[Hashable] = []
        self._object_index: dict[Hashable, int] = {}
        self._object_ts = GrowableArray(np.float64, np.nan)
        #: indices of objects touched since the dirty set was last drained
        self.dirty: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        """Number of registered sources."""
        return len(self._source_ids)

    @property
    def n_objects(self) -> int:
        """Number of registered objects."""
        return len(self._object_ids)

    @property
    def source_ids(self) -> tuple:
        """Registered sources, in first-appearance order."""
        return tuple(self._source_ids)

    @property
    def object_ids(self) -> tuple:
        """Registered objects, in first-appearance order."""
        return tuple(self._object_ids)

    @property
    def object_timestamps(self) -> np.ndarray:
        """Per-object event time (the first claim's timestamp)."""
        return self._object_ts.data

    def n_claims(self) -> int:
        """Stored claims across all properties (duplicates included)."""
        return sum(len(v) for v in self._values)

    @property
    def growth_events(self) -> int:
        """Total buffer reallocations across all growable columns."""
        total = self._object_ts.growth_events
        for arrays in (self._values, self._src, self._obj, self._first):
            total += sum(a.growth_events for a in arrays)
        return total

    def codecs(self) -> dict[str, CategoricalCodec]:
        """Codecs of the codec-backed properties, keyed by name."""
        return dict(self._codecs)

    def source_position(self, source_id: Hashable) -> int:
        """Index of ``source_id``, registering it if unseen."""
        index = self._source_index.get(source_id)
        if index is None:
            index = len(self._source_ids)
            self._source_ids.append(source_id)
            self._source_index[source_id] = index
        return index

    def object_position(self, object_id: Hashable) -> int:
        """Index of a *known* ``object_id`` (KeyError if never claimed)."""
        return self._object_index[object_id]

    # ------------------------------------------------------------------
    def add(self, claim: Claim) -> tuple[int, bool]:
        """Absorb one claim; returns ``(object_index, object_is_new)``.

        The object joins :attr:`dirty`; a new object's timestamp is the
        claim's (later claims never move an object between windows).
        """
        m = self._prop_index.get(claim.property_name)
        if m is None:
            raise ValueError(
                f"unknown property {claim.property_name!r}; schema has "
                f"{list(self._prop_index)}"
            )
        # Convert and look up before registering anything, so a bad
        # value or id leaves no source or object behind.
        codec = self._codecs.get(claim.property_name)
        value = (codec.encode(claim.value) if codec is not None
                 else float(claim.value))
        obj = self._object_index.get(claim.object_id)
        source = self.source_position(claim.source_id)
        created = obj is None
        if created:
            obj = len(self._object_ids)
            self._object_ids.append(claim.object_id)
            self._object_index[claim.object_id] = obj
            self._object_ts.append(
                np.nan if claim.timestamp is None
                else float(claim.timestamp))
            for column in self._first:
                column.append(_NO_CLAIM)
        first = self._first[m]._buf  # the raw buffer: no view per claim
        if first[obj] == _NO_CLAIM:
            first[obj] = len(self._obj[m])
        self._values[m].append(value)
        self._src[m].append(source)
        self._obj[m].append(obj)
        self.dirty.add(obj)
        return obj, created

    # ------------------------------------------------------------------
    def _scan_start(self, m: int, indices: np.ndarray) -> int:
        """First position in property ``m``'s columns that can hold a
        claim of an object at ``indices``: the oldest selected object's
        first claim, or the column length when none has a claim."""
        return int(self._first[m].data[indices].min(
            initial=len(self._obj[m])))

    def _gather(self, m: int, remap: np.ndarray, indices: np.ndarray):
        """Property ``m``'s live claims for the objects at ``indices``
        (``remap``: global object index -> local index, -1 drops),
        deduplicated keep-last, stable-sorted by local object —
        preserving arrival order within each object."""
        start = self._scan_start(m, indices)
        local = remap[self._obj[m].data[start:]]
        keep = np.flatnonzero(local >= 0)
        local = local[keep]
        keep += start
        src = self._src[m].data[keep]
        values = self._values[m].data[keep]
        if keep.size:
            # Keep only the latest claim per (object, source) cell:
            # group-sort with arrival position as the innermost key,
            # take each group's last row, then restore arrival order.
            order = np.lexsort((np.arange(keep.size), src, local))
            l_sorted = local[order]
            s_sorted = src[order]
            last = np.ones(order.size, dtype=bool)
            last[:-1] = (l_sorted[1:] != l_sorted[:-1]) | \
                (s_sorted[1:] != s_sorted[:-1])
            survivors = np.sort(order[last])
            local = local[survivors]
            src = src[survivors]
            values = values[survivors]
            by_object = np.argsort(local, kind="stable")
            local = local[by_object]
            src = src[by_object]
            values = values[by_object]
        return values, src, local.astype(np.int32)

    def dataset_for(self, object_indices: Sequence[int]) -> ClaimsMatrix:
        """A :class:`~repro.data.claims_matrix.ClaimsMatrix` chunk over
        the objects at ``object_indices`` (all registered sources).

        Claims stay in ingestion order within each object
        (``canonicalize=False``) — see the module docstring for why
        this is what bit-identical replay equivalence requires.
        """
        indices = np.asarray(object_indices, dtype=np.int64)
        remap = np.full(self.n_objects, -1, dtype=np.int64)
        remap[indices] = np.arange(indices.size)
        properties = []
        for m, prop in enumerate(self.schema):
            values, src, local = self._gather(m, remap, indices)
            properties.append(PropertyClaims(
                schema=prop,
                values=values,
                source_idx=src,
                object_idx=local,
                n_objects=int(indices.size),
                n_sources=self.n_sources,
                codec=self._codecs.get(prop.name),
                canonicalize=False,
            ))
        ts = self._object_ts.data[indices]
        return ClaimsMatrix(
            schema=self.schema,
            source_ids=self.source_ids,
            object_ids=[self._object_ids[i] for i in indices],
            properties=properties,
            object_timestamps=None if np.isnan(ts).any() else ts,
        )

    def to_claims_matrix(self) -> ClaimsMatrix:
        """The whole store as a canonical (object-major, source-
        ascending) claims matrix — the snapshot representation
        :func:`repro.data.io.save_dataset` persists."""
        remap = np.arange(self.n_objects, dtype=np.int64)
        properties = []
        for m, prop in enumerate(self.schema):
            values, src, local = self._gather(m, remap, remap)
            properties.append(PropertyClaims(
                schema=prop,
                values=values,
                source_idx=src,
                object_idx=local,
                n_objects=self.n_objects,
                n_sources=self.n_sources,
                codec=self._codecs.get(prop.name),
                canonicalize=True,
            ))
        ts = self._object_ts.data
        return ClaimsMatrix(
            schema=self.schema,
            source_ids=self.source_ids,
            object_ids=self.object_ids,
            properties=properties,
            object_timestamps=(None if ts.size and np.isnan(ts).any()
                               else ts.copy()),
        )

    @classmethod
    def from_claims_matrix(cls, matrix: ClaimsMatrix) -> "ClaimStore":
        """Rebuild a store from a (restored) claims matrix.

        Bulk-loads the canonical claim arrays, so the post-restore
        ingestion order is the canonical order — deterministic, and
        documented as part of the snapshot format.
        """
        store = cls(matrix.schema, codecs=matrix.codecs())
        for source_id in matrix.source_ids:
            store.source_position(source_id)
        store._object_ids = list(matrix.object_ids)
        store._object_index = {
            o: i for i, o in enumerate(store._object_ids)}
        if matrix.object_timestamps is not None:
            store._object_ts.extend(
                np.asarray(matrix.object_timestamps, dtype=np.float64))
        else:
            store._object_ts.resize_to(len(store._object_ids))
            store._object_ts.data[:] = np.nan
        for m, prop in enumerate(matrix.properties):
            view = prop.claim_view()
            store._values[m].extend(view.values)
            store._src[m].extend(view.source_idx)
            store._obj[m].extend(view.object_idx)
            # Canonical claims are object-major: an object's first
            # claim is its CSR row start.
            store._first[m].extend(np.where(
                np.diff(view.indptr) > 0, view.indptr[:-1], _NO_CLAIM))
        return store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClaimStore(K={self.n_sources}, N={self.n_objects}, "
            f"claims={self.n_claims()}, dirty={len(self.dirty)})"
        )
