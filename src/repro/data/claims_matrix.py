"""Sparse claims representation: CSR-by-property claim matrices.

Real multi-source data is highly sparse — each source claims only a few
objects (the long-tail phenomenon CATD analyzes) — so storing a dense
``(K, N)`` matrix per property wastes memory proportional to
``K x N - #claims``.  This module stores exactly the claims:

* :class:`ClaimView` — the canonical *claim view* every execution kernel
  consumes: parallel arrays ``(values, source_idx, object_idx)`` plus a
  CSR ``indptr`` grouping claims by object.  Claims are ordered
  object-major (by object index, then source index), which is the one
  canonical ordering both backends produce — making dense and sparse
  execution bit-identical.
* :class:`PropertyClaims` — one property's claims (the sparse analog of
  :class:`~repro.data.table.PropertyObservations`).
* :class:`ClaimsMatrix` — a full dataset in sparse form (the analog of
  :class:`~repro.data.table.MultiSourceDataset`), with a lossless
  ``from_dense()`` / ``to_dense()`` round trip.

Memory is proportional to the number of claims, not ``K x N``:
``density = claims / (K x N)`` below ~40% makes the sparse form the
smaller one (see :func:`PropertyClaims.nbytes` vs
:func:`PropertyClaims.dense_nbytes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .encoding import MISSING_CODE, CategoricalCodec
from .schema import DatasetSchema, PropertyKind, PropertySchema


def claim_nbytes(n_claims: int, n_objects: int = 0, *,
                 continuous: bool = True) -> int:
    """Projected bytes of the sparse claims form of one property.

    Counts the claim view's arrays: per-claim value (``float64`` for
    continuous, ``int32`` codes otherwise) plus ``int32`` source and
    object indices, and the ``int64`` CSR row pointer over objects.
    This is what dense-side memory projections (profiling, backend
    recommendations) use without materializing the sparse form.
    """
    value_itemsize = 8 if continuous else 4
    return int(n_claims) * (value_itemsize + 8) + (int(n_objects) + 1) * 8


@dataclass
class ClaimView:
    """The canonical flat claim layout all execution kernels consume.

    ``values[c]`` is the value source ``source_idx[c]`` claims for object
    ``object_idx[c]``.  Claims are sorted object-major (``object_idx``
    non-decreasing, ``source_idx`` ascending within an object), and
    ``indptr`` is the CSR row pointer over objects: object ``i``'s claims
    occupy rows ``indptr[i]:indptr[i + 1]``.

    The per-entry standard deviation of Eqs. 13/15 depends only on the
    claims, so it is computed once per view and cached; the weighted
    median's ``(object, value)`` sort order (:meth:`median_order`) is
    cached the same way — both are pure functions of the view's
    immutable arrays, and they are the only derived arrays a view holds.
    The vote/median initializer, every median truth step and
    :func:`~repro.data.profile.profile_dataset` read that one order.
    Views localized to a contiguous object range (process shards, mmap
    chunks) arrive with ``_median_order`` already set to the full
    order's slice minus the range's first claim row, which equals the
    range's own lexsort because claims are object-major and the sort is
    stable.
    """

    values: np.ndarray
    source_idx: np.ndarray
    object_idx: np.ndarray
    indptr: np.ndarray
    n_objects: int
    n_sources: int
    _std: np.ndarray | None = field(default=None, repr=False)
    _median_order: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_claims(self) -> int:
        """Number of claims in the view."""
        return int(self.values.shape[0])

    def claim_weights(self, source_weights: np.ndarray) -> np.ndarray:
        """Gather per-source weights into per-claim weights."""
        return np.asarray(source_weights, dtype=np.float64)[self.source_idx]

    def entry_std(self) -> np.ndarray:
        """Per-object claim std (Eqs. 13/15 normalizer), cached."""
        if self._std is None:
            from ..core.kernels import segment_std
            self._std = segment_std(
                np.asarray(self.values, dtype=np.float64),
                self.indptr, group_of_claim=self.object_idx,
            )
        return self._std

    def median_order(self) -> np.ndarray:
        """The weighted median's ``(object, value)`` lexsort permutation.

        The order depends only on the view's values and grouping, never
        on iteration weights, so one sort serves the initializer and
        every iteration of every solve on this view; cached on first
        use like :meth:`entry_std`, in :func:`order_dtype` (``int32``
        below 2**31 claims, halving the cache).
        """
        if self._median_order is None:
            self._median_order = np.lexsort(
                (np.asarray(self.values, dtype=np.float64), self.object_idx)
            ).astype(order_dtype(self.n_claims), copy=False)
        return self._median_order


def order_dtype(n_claims: int) -> np.dtype:
    """Index dtype of a claim permutation: ``int32`` when every row
    index fits (``n_claims < 2**31``), else ``int64``."""
    return np.dtype(np.int32 if n_claims < 2**31 else np.int64)


def _canonical_order(object_idx: np.ndarray,
                     source_idx: np.ndarray) -> np.ndarray:
    """Sort permutation into the canonical object-major claim order."""
    return np.lexsort((source_idx, object_idx))


def _indptr_for(object_idx: np.ndarray, n_objects: int) -> np.ndarray:
    """CSR row pointer of object-major-sorted claims."""
    counts = np.bincount(object_idx, minlength=n_objects)
    indptr = np.zeros(n_objects + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _check_codes(name: str, codes: np.ndarray, n_categories: int) -> None:
    """Refuse codec-backed values outside ``[0, n_categories)``.

    The categorical kernels index their score cells by code, so an
    out-of-range code would score in another object's cells.  Checked
    with ``min``/``max``, which read a memmap without copying it.
    """
    if codes.size and (codes.min() < 0 or codes.max() >= n_categories):
        bad = codes[(codes < 0) | (codes >= n_categories)][0]
        raise ValueError(
            f"property {name!r}: code {int(bad)} is outside its codec's "
            f"range [0, {n_categories})"
        )


class PropertyClaims:
    """One property's claims in sparse (CSR-by-object) form.

    Duck-types the property surface the loss layer consumes:
    ``schema``, ``codec``, ``n_objects``, ``n_sources`` and
    ``claim_view()`` — so losses and kernels run on sparse data without a
    dense detour.
    """

    def __init__(self, schema: PropertySchema, values: np.ndarray,
                 source_idx: np.ndarray, object_idx: np.ndarray,
                 n_objects: int, n_sources: int,
                 codec: CategoricalCodec | None = None,
                 *, canonicalize: bool = True) -> None:
        values = np.asarray(values)
        source_idx = np.asarray(source_idx, dtype=np.int32)
        object_idx = np.asarray(object_idx, dtype=np.int32)
        if not (values.shape == source_idx.shape == object_idx.shape):
            raise ValueError(
                f"property {schema.name!r}: values/source_idx/object_idx "
                f"must be equal-length 1-d arrays, got shapes "
                f"{values.shape}/{source_idx.shape}/{object_idx.shape}"
            )
        if schema.uses_codec:
            if codec is None:
                raise ValueError(
                    f"{schema.kind.value} property {schema.name!r} "
                    f"needs a codec"
                )
            values = np.asarray(values, dtype=np.int32)
            _check_codes(schema.name, values, len(codec))
        else:
            values = np.asarray(values, dtype=np.float64)
        if canonicalize and values.size:
            order = _canonical_order(object_idx, source_idx)
            values = values[order]
            source_idx = source_idx[order]
            object_idx = object_idx[order]
        self.schema = schema
        self.codec = codec
        self._view = ClaimView(
            values=values,
            source_idx=source_idx,
            object_idx=object_idx,
            indptr=_indptr_for(object_idx, n_objects),
            n_objects=int(n_objects),
            n_sources=int(n_sources),
        )

    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """Number of objects N (columns of the virtual matrix)."""
        return self._view.n_objects

    @property
    def n_sources(self) -> int:
        """Number of sources K (rows of the virtual matrix)."""
        return self._view.n_sources

    @property
    def n_claims(self) -> int:
        """Number of stored claims (observed cells)."""
        return self._view.n_claims

    def n_observations(self) -> int:
        """Alias of :attr:`n_claims` (dense-table API compatibility)."""
        return self.n_claims

    def claim_view(self) -> ClaimView:
        """The canonical claim view (the stored arrays, zero-copy)."""
        return self._view

    def density(self) -> float:
        """Fraction of the virtual ``K x N`` matrix that is claimed."""
        cells = self.n_sources * self.n_objects
        return self.n_claims / cells if cells else 0.0

    def nbytes(self) -> int:
        """Bytes held by the sparse representation (values + indices)."""
        view = self._view
        return int(view.values.nbytes + view.source_idx.nbytes
                   + view.object_idx.nbytes + view.indptr.nbytes)

    def sparse_nbytes(self) -> int:
        """Alias of :meth:`nbytes` (this *is* the sparse form)."""
        return self.nbytes()

    def dense_nbytes(self) -> int:
        """Bytes a dense ``(K, N)`` matrix of this property would hold."""
        itemsize = 4 if self.schema.uses_codec else 8
        return self.n_sources * self.n_objects * itemsize

    def entry_mask(self) -> np.ndarray:
        """Boolean ``(N,)`` mask of objects claimed by >= 1 source."""
        return np.diff(self._view.indptr) > 0

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, prop) -> "PropertyClaims":
        """The claims of a dense
        :class:`~repro.data.table.PropertyObservations` matrix.

        Wraps the matrix's cached :meth:`claim_view` itself, not a copy,
        so the view's ``entry_std``/``median_order`` caches are shared:
        converting the same dense dataset again sorts nothing again.
        """
        claims = cls.__new__(cls)
        claims.schema = prop.schema
        claims.codec = prop.codec
        claims._view = prop.claim_view()
        return claims

    def to_dense(self):
        """Materialize the claims into a dense
        :class:`~repro.data.table.PropertyObservations` (lossless)."""
        from .table import PropertyObservations
        view = self._view
        if self.schema.uses_codec:
            matrix: np.ndarray = np.full(
                (self.n_sources, self.n_objects), MISSING_CODE,
                dtype=np.int32,
            )
        else:
            matrix = np.full((self.n_sources, self.n_objects), np.nan,
                             dtype=np.float64)
        matrix[view.source_idx, view.object_idx] = view.values
        return PropertyObservations(schema=self.schema, values=matrix,
                                    codec=self.codec)

    def select_objects(self, indices: np.ndarray) -> "PropertyClaims":
        """Claims restricted (and re-indexed) to the objects at
        ``indices``.

        Gathers each selected object's CSR row through ``indptr``, so
        the cost is O(selected claims), not O(all claims).  A repeated
        index repeats its object's claims, as the dense table repeats
        the column; within an object the claim order is kept.
        """
        indices = np.asarray(indices, dtype=np.int64)
        view = self._view
        starts = view.indptr[indices]
        lengths = view.indptr[indices + 1] - starts
        row_starts = np.cumsum(lengths) - lengths
        claims = (np.arange(lengths.sum())
                  + np.repeat(starts - row_starts, lengths))
        return PropertyClaims(
            schema=self.schema,
            values=view.values[claims],
            source_idx=view.source_idx[claims],
            object_idx=np.repeat(np.arange(indices.size, dtype=np.int32),
                                 lengths),
            n_objects=int(indices.size),
            n_sources=self.n_sources,
            codec=self.codec,
            canonicalize=False,
        )

    def select_sources(self, indices: np.ndarray) -> "PropertyClaims":
        """Claims restricted (and re-indexed) to the sources at
        ``indices``."""
        indices = np.asarray(indices)
        view = self._view
        remap = np.full(self.n_sources, -1, dtype=np.int64)
        remap[indices] = np.arange(indices.size)
        new_sources = remap[view.source_idx]
        keep = new_sources >= 0
        return PropertyClaims(
            schema=self.schema,
            values=view.values[keep],
            source_idx=new_sources[keep].astype(np.int32),
            object_idx=view.object_idx[keep],
            n_objects=self.n_objects,
            n_sources=int(indices.size),
            codec=self.codec,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PropertyClaims({self.schema.name!r}, claims={self.n_claims}, "
            f"density={self.density():.3f})"
        )


class ClaimsMatrix:
    """A whole multi-source dataset in sparse claim form.

    The sparse analog of :class:`~repro.data.table.MultiSourceDataset`:
    identical schema/source/object bookkeeping, but every property holds
    a :class:`PropertyClaims` CSR instead of a dense matrix.  Use
    :meth:`from_dense` to convert an existing dense dataset, or
    :meth:`~repro.data.table.DatasetBuilder.build_sparse` to assemble one
    directly from observations without ever materializing ``K x N``
    cells.
    """

    #: why ``load_dataset(..., mmap=True)`` could not memory-map this
    #: matrix's claim arrays (``None``: not requested, or mapping
    #: succeeded).  The mmap backend refuses to chunk a matrix carrying
    #: a reason here and degrades to inline sparse execution instead.
    mmap_fallback_reason: str | None = None

    def __init__(
        self,
        schema: DatasetSchema,
        source_ids: Sequence[Hashable],
        object_ids: Sequence[Hashable],
        properties: Sequence[PropertyClaims],
        object_timestamps: np.ndarray | None = None,
    ) -> None:
        self.schema = schema
        self.source_ids = tuple(source_ids)
        self.object_ids = tuple(object_ids)
        self.properties = tuple(properties)
        if len(self.properties) != len(schema):
            raise ValueError(
                f"schema has {len(schema)} properties but "
                f"{len(self.properties)} claim sets were given"
            )
        k, n = len(self.source_ids), len(self.object_ids)
        for prop, prop_schema in zip(self.properties, schema):
            if prop.schema != prop_schema:
                raise ValueError(
                    f"property order mismatch: {prop.schema.name!r} vs "
                    f"{prop_schema.name!r}"
                )
            if (prop.n_sources, prop.n_objects) != (k, n):
                raise ValueError(
                    f"property {prop_schema.name!r}: shape "
                    f"({prop.n_sources}, {prop.n_objects}) != (K={k}, N={n})"
                )
        if object_timestamps is not None:
            object_timestamps = np.asarray(object_timestamps)
            if object_timestamps.shape != (n,):
                raise ValueError(
                    f"object_timestamps shape {object_timestamps.shape} "
                    f"!= (N={n},)"
                )
        self.object_timestamps = object_timestamps
        self._source_index = {s: i for i, s in enumerate(self.source_ids)}
        self._object_index = {o: i for i, o in enumerate(self.object_ids)}

    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        """Number of sources K."""
        return len(self.source_ids)

    @property
    def n_objects(self) -> int:
        """Number of objects N."""
        return len(self.object_ids)

    @property
    def n_properties(self) -> int:
        """Number of properties M."""
        return len(self.properties)

    def n_claims(self) -> int:
        """Total stored claims across all properties."""
        return sum(p.n_claims for p in self.properties)

    def n_observations(self) -> int:
        """Alias of :meth:`n_claims` (dense-dataset API compatibility)."""
        return self.n_claims()

    def n_entries(self) -> int:
        """Number of (object, property) pairs claimed by >= 1 source."""
        return sum(int(p.entry_mask().sum()) for p in self.properties)

    def density(self) -> float:
        """Overall claim density: claims / (K x N x M)."""
        cells = self.n_sources * self.n_objects * self.n_properties
        return self.n_claims() / cells if cells else 0.0

    def nbytes(self) -> int:
        """Bytes held by the sparse representation."""
        return sum(p.nbytes() for p in self.properties)

    def sparse_nbytes(self) -> int:
        """Alias of :meth:`nbytes` (this *is* the sparse form)."""
        return self.nbytes()

    def dense_nbytes(self) -> int:
        """Bytes the equivalent dense dataset would hold."""
        return sum(p.dense_nbytes() for p in self.properties)

    def source_index(self, source_id: Hashable) -> int:
        """Row index of ``source_id``."""
        return self._source_index[source_id]

    def object_index(self, object_id: Hashable) -> int:
        """Column index of ``object_id``."""
        return self._object_index[object_id]

    def property_observations(self, key: int | str) -> PropertyClaims:
        """One property's claims, by name or position."""
        if isinstance(key, str):
            key = self.schema.index_of(key)
        return self.properties[key]

    def codecs(self) -> dict[str, CategoricalCodec]:
        """Codecs of the codec-backed properties, keyed by name."""
        return {
            p.schema.name: p.codec
            for p in self.properties
            if p.codec is not None
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dataset) -> "ClaimsMatrix":
        """Convert a dense :class:`~repro.data.table.MultiSourceDataset`
        into sparse claim form (lossless)."""
        return cls(
            schema=dataset.schema,
            source_ids=dataset.source_ids,
            object_ids=dataset.object_ids,
            properties=[PropertyClaims.from_dense(p)
                        for p in dataset.properties],
            object_timestamps=dataset.object_timestamps,
        )

    def to_dense(self):
        """Materialize into a dense
        :class:`~repro.data.table.MultiSourceDataset` (lossless)."""
        from .table import MultiSourceDataset
        return MultiSourceDataset(
            schema=self.schema,
            source_ids=self.source_ids,
            object_ids=self.object_ids,
            properties=[p.to_dense() for p in self.properties],
            object_timestamps=self.object_timestamps,
        )

    def select_objects(self, indices: np.ndarray) -> "ClaimsMatrix":
        """Claims restricted to the objects at ``indices``."""
        indices = np.asarray(indices)
        ts = (self.object_timestamps[indices]
              if self.object_timestamps is not None else None)
        return ClaimsMatrix(
            schema=self.schema,
            source_ids=self.source_ids,
            object_ids=[self.object_ids[i] for i in indices],
            properties=[p.select_objects(indices) for p in self.properties],
            object_timestamps=ts,
        )

    def select_sources(self, indices: np.ndarray) -> "ClaimsMatrix":
        """Claims restricted to the sources at ``indices``."""
        indices = np.asarray(indices)
        return ClaimsMatrix(
            schema=self.schema,
            source_ids=[self.source_ids[i] for i in indices],
            object_ids=self.object_ids,
            properties=[p.select_sources(indices) for p in self.properties],
            object_timestamps=self.object_timestamps,
        )

    def restrict_kind(self, kind: PropertyKind) -> "ClaimsMatrix":
        """Claims matrix with only the properties of ``kind``."""
        keep = [i for i, p in enumerate(self.schema) if p.kind is kind]
        if not keep:
            raise ValueError(f"dataset has no {kind.value} properties")
        return ClaimsMatrix(
            schema=DatasetSchema.of(*(self.schema[i] for i in keep)),
            source_ids=self.source_ids,
            object_ids=self.object_ids,
            properties=[self.properties[i] for i in keep],
            object_timestamps=self.object_timestamps,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClaimsMatrix(K={self.n_sources}, N={self.n_objects}, "
            f"M={self.n_properties}, claims={self.n_claims()}, "
            f"density={self.density():.3f})"
        )


def claims_from_arrays(
    schema: DatasetSchema,
    source_ids: Sequence[Hashable],
    object_ids: Sequence[Hashable],
    columns: Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    codecs: Mapping[str, CategoricalCodec] | None = None,
    object_timestamps: np.ndarray | None = None,
    assume_canonical: bool = False,
) -> ClaimsMatrix:
    """Build a :class:`ClaimsMatrix` from raw per-property claim triples.

    ``columns`` maps each property name to ``(values, source_idx,
    object_idx)`` arrays (values already encoded for codec-backed
    properties).  This is the zero-copy-ish entry point for synthetic
    workloads that should never materialize a dense matrix.

    ``assume_canonical=True`` skips the canonical object-major sort —
    for inputs that are *already* in claim-view order, like arrays
    written by :func:`repro.data.io.save_dataset` (and, crucially, the
    memmaps ``load_dataset(mmap=True)`` opens, which must never be
    permuted into an O(claims) RAM allocation).
    """
    codecs = dict(codecs or {})
    properties = []
    for prop in schema:
        values, source_idx, object_idx = columns[prop.name]
        properties.append(PropertyClaims(
            schema=prop,
            values=values,
            source_idx=np.asarray(source_idx, dtype=np.int32),
            object_idx=np.asarray(object_idx, dtype=np.int32),
            n_objects=len(object_ids),
            n_sources=len(source_ids),
            codec=codecs.get(prop.name),
            canonicalize=not assume_canonical,
        ))
    return ClaimsMatrix(
        schema=schema,
        source_ids=source_ids,
        object_ids=object_ids,
        properties=properties,
        object_timestamps=object_timestamps,
    )
