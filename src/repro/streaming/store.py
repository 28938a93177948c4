"""Appendable claim storage for the truth-serving layer.

The serving stack (``repro.streaming.service``) absorbs claims in
batches without paying a reallocation per arrival.  This module
provides the two pieces that make that cheap:

* :class:`GrowableArray` — an append-only numpy array with amortized
  doubling growth (O(1) amortized per element, O(log n) reallocations),
  shared by the :class:`ClaimStore` claim columns and the
  :class:`~repro.streaming.icrh.IncrementalCRH` per-source accumulators.
* :class:`ClaimStore` — a per-object claim index: a batch is validated
  once into :class:`ClaimColumns`, then stored column-wise — sources
  and objects register in first-appearance order, each property's
  claims land in flat arrays in *insertion order* with one value
  conversion and one ``extend`` per column, and every touched object
  joins a **dirty set** the recompute planner drains.

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

from itertools import repeat
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
    Extends write into spare capacity and the buffer doubles only when
    full, so ``n`` elements cost O(n) amortized with O(log n)
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


class ClaimColumns(NamedTuple):
    """A validated claim batch, column-wise (see :meth:`ClaimStore.columns`).

    Object and source indices are the ones the store assigns when the
    batch is stored: registered ids keep theirs, new ids take the next
    free ones in first-appearance order.  The indices hold only while
    the batch's segments are stored in order (:meth:`ClaimStore.absorb`
    checks it).
    """

    #: object id per claim
    objects: list
    #: source id per claim
    sources: list
    #: event time per claim (float64, never NaN)
    timestamps: np.ndarray
    #: object index per claim (int64)
    object_index: np.ndarray
    #: source index per claim (int64)
    source_index: np.ndarray
    #: ascending claim positions that introduce a new object
    new_objects: np.ndarray
    #: ascending claim positions that introduce a new source
    new_sources: np.ndarray
    #: per property, the ascending positions of its claims
    rows: tuple
    #: per property, its claims' values: float64, or labels for
    #: codec-backed properties (encoded when stored)
    values: tuple
    #: registered objects when the indices were assigned
    base_objects: int
    #: registered sources when the indices were assigned
    base_sources: int


def _is_missing(value) -> bool:
    """Whether a label is what a codec encodes as missing."""
    return value is None or (isinstance(value, float) and value != value)


def _assign(ids, registered: dict, base: int):
    """Indices of ``ids`` (registered ones keep theirs, new ones take
    ``base``, ``base + 1``, ... in first-appearance order) and the
    ascending positions that introduce a new id."""
    try:  # the common case for sources: every id is registered
        return (np.fromiter(map(registered.__getitem__, ids),
                            dtype=np.int64, count=len(ids)),
                np.empty(0, dtype=np.int64))
    except KeyError:
        pass
    lookup = dict.fromkeys(ids)
    fresh = base
    for key in lookup:
        index = registered.get(key)
        if index is None:
            index = fresh
            fresh += 1
        lookup[key] = index
    indices = np.fromiter(map(lookup.__getitem__, ids), dtype=np.int64,
                          count=len(ids))
    if fresh == base:
        return indices, np.empty(0, dtype=np.int64)
    # A new id's first claim exceeds every earlier index, and no
    # registered index reaches base.
    running = np.maximum.accumulate(
        np.concatenate(([base - 1], indices)))
    return indices, np.flatnonzero(indices > running[:-1])


def _register(ids: list, index: dict, fresh: list) -> None:
    """Append the ``fresh`` ids, giving each the next index.  ``index``
    is updated in place, never rebound: ``TruthService.get_truth``
    reads the object index without a lock."""
    index.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
    ids.extend(fresh)


class ClaimStore:
    """Per-object claim index with first-appearance registries.

    One batch path stores claims: :meth:`columns` validates a batch
    into :class:`ClaimColumns` (registering nothing, and stopping at
    the first bad claim), and :meth:`absorb` stores it — whole, or as
    consecutive segments, which is how the service splits a batch at
    the claims that seal a window.  :meth:`add` is a one-row call of
    the same path.  Claims append to flat per-property arrays (values,
    source index, object index) in arrival order; sources and objects
    get dense indices when first seen.  Every touched object index is
    added to :attr:`dirty` — the invalidation contract the service's
    recompute planner drains after each ingest batch.  Per property,
    each object's first claim position bounds the claims
    :meth:`dataset_for` scans.
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
        #: per property, its codec (``None`` for continuous properties)
        self._codec_of = [self._codecs.get(p.name) for p in schema]
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

    def object_position(self, object_id: Hashable) -> int:
        """Index of a *known* ``object_id`` (KeyError if never claimed)."""
        return self._object_index[object_id]

    # ------------------------------------------------------------------
    def columns(self, claims: Sequence[Claim]
                ) -> tuple[ClaimColumns, Exception | None]:
        """Validate a batch; registers nothing.

        Returns the columns of the batch's longest valid prefix and the
        error the first bad claim raises (``None`` if every claim is
        good).  A claim is bad when its timestamp is missing, NaN or
        not a number, its property is not in the schema, its value is
        ``None`` or NaN or does not convert, or its object or source id
        is unhashable.  Every check is per claim, so the prefix is found
        by bisection over whole-batch validations.
        """
        try:
            return self._columns(claims), None
        except (TypeError, ValueError):
            pass
        good, bad = 0, len(claims)
        while bad - good > 1:
            middle = (good + bad) // 2
            try:
                self._columns(claims[:middle])
                good = middle
            except (TypeError, ValueError):
                bad = middle
        try:
            self._columns(claims[good:good + 1])
        except (TypeError, ValueError) as exc:
            return self._columns(claims[:good]), exc
        raise RuntimeError("claim checks must be per claim")

    def _columns(self, claims: Sequence[Claim]) -> ClaimColumns:
        """:meth:`columns` of an all-good batch; raises on any bad
        claim (:meth:`columns` re-raises from the bad claim alone, so
        its message is exact)."""
        n = len(claims)
        # One list per field: zip(*claims) slows down with batch size.
        objects, names, sources, values, stamps = (
            [claim[field] for claim in claims] for field in range(5))
        try:
            timestamps = np.fromiter(map(float, stamps), dtype=np.float64,
                                     count=n)
            bad = np.isnan(timestamps)
        except (TypeError, ValueError, OverflowError):
            bad = np.ones(n, dtype=bool)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(
                "claims need timestamps to drive window sealing; got "
                f"{stamps[j]!r} for object {objects[j]!r}"
            )
        try:
            prop = np.fromiter(map(self._prop_index.get, names, repeat(-1)),
                               dtype=np.int64, count=n)
        except TypeError:  # an unhashable property name
            prop = np.full(n, -1, dtype=np.int64)
        # Group claim positions by property; the stable sort keeps each
        # group ascending, and an unknown property (-1) sorts first.
        order = np.argsort(prop, kind="stable")
        grouped = prop[order]
        if n and grouped[0] < 0:
            j = int(order[0])
            raise ValueError(
                f"unknown property {names[j]!r}; schema has "
                f"{list(self._prop_index)}"
            )
        bounds = np.searchsorted(
            grouped, np.arange(len(self.schema) + 1)).tolist()
        boxed = np.fromiter(values, dtype=object, count=n)
        rows, converted = [], []
        for m, spec in enumerate(self.schema):
            at = order[bounds[m]:bounds[m + 1]]
            column, j = [], -1
            if at.size and spec.uses_codec:
                column = boxed[at].tolist()
                try:
                    distinct = dict.fromkeys(column)
                except TypeError as exc:
                    raise TypeError(
                        f"labels of property {spec.name!r} must be "
                        f"hashable: {exc}") from None
                missing = [label for label in distinct
                           if _is_missing(label)]
                j = int(at[column.index(missing[0])]) if missing else -1
            elif at.size:
                try:
                    column = boxed[at].astype(np.float64)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(
                        f"values of property {spec.name!r} must be "
                        f"numbers: {exc}") from None
                nan = np.isnan(column)
                j = int(at[np.argmax(nan)]) if nan.any() else -1
            if j >= 0:
                raise ValueError(
                    f"missing value (None or NaN) for object "
                    f"{objects[j]!r}, property {spec.name!r}"
                )
            rows.append(at)
            converted.append(column)
        try:
            object_index, new_objects = _assign(
                objects, self._object_index, self.n_objects)
            source_index, new_sources = _assign(
                sources, self._source_index, self.n_sources)
        except TypeError as exc:
            raise TypeError(f"object and source ids must be hashable: "
                            f"{exc}") from None
        return ClaimColumns(
            objects=objects, sources=sources, timestamps=timestamps,
            object_index=object_index, source_index=source_index,
            new_objects=new_objects, new_sources=new_sources,
            rows=tuple(rows), values=tuple(converted),
            base_objects=self.n_objects, base_sources=self.n_sources,
        )

    def absorb(self, columns: ClaimColumns, start: int = 0,
               stop: int | None = None) -> None:
        """Store the claims at positions ``[start, stop)`` of a batch.

        Registers the segment's new sources and objects (first
        appearance order; an object's timestamp is its first claim's),
        appends each property's claims with one value conversion and
        one ``extend`` per column, lowers each touched object's first
        claim position with one ``np.minimum.at``, and adds the touched
        objects to :attr:`dirty`.  A batch's segments must be stored in
        order, each starting where the previous one stopped.
        """
        n = columns.timestamps.size
        stop = n if stop is None else stop
        if start >= stop:
            return
        whole = start == 0 and stop == n

        def segment(positions):
            """``positions[lo:hi]`` spans the claims in the segment."""
            if whole:
                return 0, positions.size
            lo, hi = np.searchsorted(positions, (start, stop))
            return int(lo), int(hi)

        sources = segment(columns.new_sources)
        objects = segment(columns.new_objects)
        if (self.n_sources != columns.base_sources + sources[0]
                or self.n_objects != columns.base_objects + objects[0]):
            raise ValueError(
                "claim columns are stale: store a batch's segments in "
                "order, right after ClaimStore.columns")
        fresh = columns.new_sources[slice(*sources)].tolist()
        _register(self._source_ids, self._source_index,
                  [columns.sources[p] for p in fresh])
        fresh = columns.new_objects[slice(*objects)]
        if fresh.size:
            _register(self._object_ids, self._object_index,
                      [columns.objects[p] for p in fresh.tolist()])
            self._object_ts.extend(columns.timestamps[fresh])
            for column in self._first:
                column.resize_to(self.n_objects)
        for m, (rows, values) in enumerate(zip(columns.rows,
                                               columns.values)):
            lo, hi = segment(rows)
            if hi == lo:
                continue
            at = rows[lo:hi]
            codec = self._codec_of[m]
            obj = columns.object_index[at]
            first = len(self._obj[m])
            self._values[m].extend(values[lo:hi] if codec is None
                                   else codec.encode_many(values[lo:hi]))
            self._src[m].extend(columns.source_index[at])
            self._obj[m].extend(obj)
            np.minimum.at(self._first[m].data, obj,
                          np.arange(first, first + at.size))
        self.dirty.update(columns.object_index[start:stop].tolist())

    def add(self, claim: Claim) -> tuple[int, bool]:
        """Absorb one claim; returns ``(object_index, object_is_new)``.

        A one-row :meth:`columns` + :meth:`absorb`: a bad claim raises
        before anything registers.
        """
        columns, error = self.columns([claim])
        if error is not None:
            raise error
        self.absorb(columns)
        return int(columns.object_index[0]), columns.new_objects.size > 0

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
        _register(store._source_ids, store._source_index,
                  list(matrix.source_ids))
        _register(store._object_ids, store._object_index,
                  list(matrix.object_ids))
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
