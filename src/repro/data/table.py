"""Dense multi-source observation tables and truth tables.

The paper's notation maps onto this module as follows: the observation of
the *m*-th property of the *i*-th object by the *k*-th source,
``v^(k)_im``, lives at ``dataset.property_observations(m).values[k, i]``.
Each property stores a ``(K, N)`` matrix — ``float64`` with ``NaN`` for
missing continuous observations, ``int32`` codes with ``-1`` for missing
categorical ones — so the CRH solver's weight and truth steps vectorize
over sources and objects.

Truth tables (:class:`TruthTable`) hold one value per entry and double as
(possibly partial) ground truth: unlabeled entries are ``NaN`` / ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encoding import MISSING_CODE, CategoricalCodec
from .schema import DatasetSchema, PropertyKind, PropertySchema


@dataclass(frozen=True)
class PropertyObservations:
    """Observations of one property by all sources: a ``(K, N)`` matrix."""

    schema: PropertySchema
    values: np.ndarray
    codec: CategoricalCodec | None = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(
                f"property {self.schema.name!r}: expected (K, N) matrix, "
                f"got shape {self.values.shape}"
            )
        if self.schema.uses_codec:
            if self.codec is None:
                raise ValueError(
                    f"{self.schema.kind.value} property {self.schema.name!r} "
                    f"needs a codec"
                )
            if not np.issubdtype(self.values.dtype, np.integer):
                raise TypeError(
                    f"{self.schema.kind.value} property {self.schema.name!r} "
                    f"must store "
                    f"integer codes, got dtype {self.values.dtype}"
                )
            codes, n_codes = self.values, len(self.codec)
            if codes.size and (codes.min() < MISSING_CODE
                               or codes.max() >= n_codes):
                bad = codes[(codes < MISSING_CODE) | (codes >= n_codes)][0]
                raise ValueError(
                    f"property {self.schema.name!r}: code {int(bad)} is "
                    f"outside its codec's range [0, {n_codes}) "
                    f"({MISSING_CODE} marks a missing value)"
                )
        else:
            if not np.issubdtype(self.values.dtype, np.floating):
                raise TypeError(
                    f"continuous property {self.schema.name!r} must store "
                    f"floats, got dtype {self.values.dtype}"
                )

    @property
    def n_sources(self) -> int:
        return self.values.shape[0]

    @property
    def n_objects(self) -> int:
        return self.values.shape[1]

    def observed_mask(self) -> np.ndarray:
        """Boolean ``(K, N)`` mask: ``True`` where a value was observed."""
        if self.schema.uses_codec:
            return self.values != MISSING_CODE
        return ~np.isnan(self.values)

    def entry_mask(self) -> np.ndarray:
        """Boolean ``(N,)`` mask of objects observed by at least one source."""
        return self.observed_mask().any(axis=0)

    def n_observations(self) -> int:
        """Number of observed (non-missing) cells."""
        return int(self.observed_mask().sum())

    def density(self) -> float:
        """Fraction of the ``K x N`` matrix that is observed."""
        cells = self.values.size
        return self.n_observations() / cells if cells else 0.0

    def nbytes(self) -> int:
        """Bytes held by the dense matrix."""
        return int(self.values.nbytes)

    def dense_nbytes(self) -> int:
        """Alias of :meth:`nbytes` (this *is* the dense form)."""
        return self.nbytes()

    def sparse_nbytes(self) -> int:
        """Bytes the sparse claims form of this property would hold."""
        from .claims_matrix import claim_nbytes
        return claim_nbytes(self.n_observations(), self.n_objects,
                            continuous=self.schema.is_continuous)

    def select_objects(self, indices: np.ndarray) -> "PropertyObservations":
        """Column subset (e.g. one stream chunk), sharing the codec."""
        return PropertyObservations(
            schema=self.schema,
            values=self.values[:, indices],
            codec=self.codec,
        )

    def select_sources(self, indices: np.ndarray) -> "PropertyObservations":
        """Row subset of the matrix (a sub-panel of sources)."""
        return PropertyObservations(
            schema=self.schema,
            values=self.values[indices, :],
            codec=self.codec,
        )

    def claim_view(self):
        """Canonical claim view of the observed cells, cached.

        Both execution backends feed kernels through this view, which is
        what makes dense and sparse execution bit-identical: the claims
        are extracted in the same object-major, source-ascending order
        :class:`~repro.data.claims_matrix.PropertyClaims` stores.
        """
        cached = getattr(self, "_claim_view_cache", None)
        if cached is None:
            from .claims_matrix import PropertyClaims
            observed = self.observed_mask().T
            object_idx, source_idx = np.nonzero(observed)
            cached = PropertyClaims(
                schema=self.schema,
                values=self.values.T[observed],
                source_idx=source_idx.astype(np.int32),
                object_idx=object_idx.astype(np.int32),
                n_objects=self.n_objects,
                n_sources=self.n_sources,
                codec=self.codec,
                # nonzero of the transpose is object-major
                canonicalize=False,
            ).claim_view()
            object.__setattr__(self, "_claim_view_cache", cached)
        return cached


class MultiSourceDataset:
    """Observations about ``N`` objects' ``M`` properties from ``K`` sources.

    Instances are immutable views over dense per-property matrices; use
    :class:`DatasetBuilder` to assemble one from sparse observations, or the
    generators in :mod:`repro.datasets` for experiment workloads.

    Parameters
    ----------
    schema:
        Property schema shared by all sources.
    source_ids:
        Identifiers of the ``K`` sources, in matrix row order.
    object_ids:
        Identifiers of the ``N`` objects, in matrix column order.
    properties:
        One :class:`PropertyObservations` per schema property, in order.
    object_timestamps:
        Optional ``(N,)`` integer array assigning each object to a stream
        timestamp (used by I-CRH chunking); ``None`` for static datasets.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        source_ids: Sequence[Hashable],
        object_ids: Sequence[Hashable],
        properties: Sequence[PropertyObservations],
        object_timestamps: np.ndarray | None = None,
    ) -> None:
        self.schema = schema
        self.source_ids = tuple(source_ids)
        self.object_ids = tuple(object_ids)
        self.properties = tuple(properties)
        if len(self.properties) != len(schema):
            raise ValueError(
                f"schema has {len(schema)} properties but "
                f"{len(self.properties)} matrices were given"
            )
        k, n = len(self.source_ids), len(self.object_ids)
        for prop, prop_schema in zip(self.properties, schema):
            if prop.schema != prop_schema:
                raise ValueError(
                    f"property order mismatch: {prop.schema.name!r} vs "
                    f"{prop_schema.name!r}"
                )
            if prop.values.shape != (k, n):
                raise ValueError(
                    f"property {prop_schema.name!r}: shape "
                    f"{prop.values.shape} != (K={k}, N={n})"
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
    # basic shape accessors
    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    @property
    def n_objects(self) -> int:
        return len(self.object_ids)

    @property
    def n_properties(self) -> int:
        return len(self.properties)

    def n_observations(self) -> int:
        """Total observed cells across all sources and properties."""
        return sum(p.n_observations() for p in self.properties)

    def n_entries(self) -> int:
        """Number of (object, property) pairs observed by >= 1 source."""
        return sum(int(p.entry_mask().sum()) for p in self.properties)

    def density(self) -> float:
        """Overall claim density: observations / (K x N x M)."""
        cells = self.n_sources * self.n_objects * self.n_properties
        return self.n_observations() / cells if cells else 0.0

    def nbytes(self) -> int:
        """Bytes held by the dense per-property matrices."""
        return sum(p.nbytes() for p in self.properties)

    def dense_nbytes(self) -> int:
        """Alias of :meth:`nbytes` (this *is* the dense form)."""
        return self.nbytes()

    def sparse_nbytes(self) -> int:
        """Bytes the sparse claims form of this dataset would hold."""
        return sum(p.sparse_nbytes() for p in self.properties)

    def source_index(self, source_id: Hashable) -> int:
        """Row index of ``source_id``."""
        return self._source_index[source_id]

    def object_index(self, object_id: Hashable) -> int:
        """Column index of ``object_id``."""
        return self._object_index[object_id]

    def property_observations(self, key: int | str) -> PropertyObservations:
        """One property's observation matrix, by name or position."""
        if isinstance(key, str):
            key = self.schema.index_of(key)
        return self.properties[key]

    def codecs(self) -> dict[str, CategoricalCodec]:
        """Codecs of the categorical properties, keyed by property name."""
        return {
            p.schema.name: p.codec
            for p in self.properties
            if p.codec is not None
        }

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def select_objects(self, indices: np.ndarray) -> "MultiSourceDataset":
        """Dataset restricted to the objects at ``indices`` (column view)."""
        indices = np.asarray(indices)
        ts = (self.object_timestamps[indices]
              if self.object_timestamps is not None else None)
        return MultiSourceDataset(
            schema=self.schema,
            source_ids=self.source_ids,
            object_ids=[self.object_ids[i] for i in indices],
            properties=[p.select_objects(indices) for p in self.properties],
            object_timestamps=ts,
        )

    def select_sources(self, indices: np.ndarray) -> "MultiSourceDataset":
        """Dataset restricted to the sources at ``indices`` (row view)."""
        indices = np.asarray(indices)
        return MultiSourceDataset(
            schema=self.schema,
            source_ids=[self.source_ids[i] for i in indices],
            object_ids=self.object_ids,
            properties=[p.select_sources(indices) for p in self.properties],
            object_timestamps=self.object_timestamps,
        )

    def restrict_kind(self, kind: PropertyKind) -> "MultiSourceDataset":
        """Dataset with only the properties of ``kind``.

        Used by single-type baselines (Mean/Median/GTM on continuous,
        Voting on categorical) and by the joint-vs-separate ablation.
        """
        keep = [i for i, p in enumerate(self.schema) if p.kind is kind]
        if not keep:
            raise ValueError(f"dataset has no {kind.value} properties")
        return MultiSourceDataset(
            schema=DatasetSchema.of(*(self.schema[i] for i in keep)),
            source_ids=self.source_ids,
            object_ids=self.object_ids,
            properties=[self.properties[i] for i in keep],
            object_timestamps=self.object_timestamps,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiSourceDataset(K={self.n_sources}, N={self.n_objects}, "
            f"M={self.n_properties}, observations={self.n_observations()})"
        )


class TruthTable:
    """One value per (object, property) entry — a solver output or a
    (possibly partial) ground truth.

    Continuous columns are ``float64`` vectors with ``NaN`` marking
    unlabeled entries; categorical columns are ``int32`` code vectors with
    ``-1`` marking unlabeled entries, decoded through the same codecs as
    the dataset they refer to.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        object_ids: Sequence[Hashable],
        columns: Sequence[np.ndarray],
        codecs: Mapping[str, CategoricalCodec],
    ) -> None:
        self.schema = schema
        self.object_ids = tuple(object_ids)
        self.columns = tuple(np.asarray(c) for c in columns)
        self.codecs = dict(codecs)
        n = len(self.object_ids)
        if len(self.columns) != len(schema):
            raise ValueError(
                f"{len(self.columns)} columns for {len(schema)} properties"
            )
        for col, prop in zip(self.columns, schema):
            if col.shape != (n,):
                raise ValueError(
                    f"column {prop.name!r}: shape {col.shape} != ({n},)"
                )
            if prop.uses_codec and prop.name not in self.codecs:
                raise ValueError(f"missing codec for {prop.name!r}")
        self._object_index = {o: i for i, o in enumerate(self.object_ids)}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_labels(
        cls,
        schema: DatasetSchema,
        object_ids: Sequence[Hashable],
        values: Mapping[str, Sequence],
        codecs: Mapping[str, CategoricalCodec] | None = None,
    ) -> "TruthTable":
        """Build from per-property label sequences.

        ``codecs`` should be the dataset's codecs so that codes line up;
        ground-truth labels never claimed by any source are appended to the
        (unfrozen) codec, which is exactly what error-rate evaluation needs.
        """
        codecs = dict(codecs) if codecs is not None else {}
        columns: list[np.ndarray] = []
        for prop in schema:
            seq = values[prop.name]
            if len(seq) != len(object_ids):
                raise ValueError(
                    f"property {prop.name!r}: {len(seq)} values for "
                    f"{len(object_ids)} objects"
                )
            if prop.uses_codec:
                codec = codecs.setdefault(prop.name, CategoricalCodec())
                columns.append(codec.encode_many(list(seq)))
            else:
                columns.append(np.asarray(seq, dtype=np.float64))
        return cls(schema, object_ids, columns, codecs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self.object_ids)

    def column(self, key: int | str) -> np.ndarray:
        """One property's value column, by name or position."""
        if isinstance(key, str):
            key = self.schema.index_of(key)
        return self.columns[key]

    def labeled_mask(self, key: int | str) -> np.ndarray:
        """Boolean ``(N,)`` mask of entries that carry a value."""
        prop = self.schema[key] if isinstance(key, int) else self.schema[key]
        col = self.column(key)
        if prop.uses_codec:
            return col != MISSING_CODE
        return ~np.isnan(col)

    def n_truths(self) -> int:
        """Number of labeled entries (the paper's "# Ground Truths")."""
        return sum(
            int(self.labeled_mask(i).sum()) for i in range(len(self.schema))
        )

    def value(self, object_id: Hashable, property_name: str):
        """Decoded value of one entry (``None`` when unlabeled)."""
        i = self._object_index[object_id]
        m = self.schema.index_of(property_name)
        prop = self.schema[m]
        raw = self.columns[m][i]
        if prop.uses_codec:
            return self.codecs[prop.name].decode(int(raw))
        return None if np.isnan(raw) else float(raw)

    def to_labels(self) -> dict[str, list]:
        """Decode every column back to label/float lists (``None`` = unlabeled)."""
        out: dict[str, list] = {}
        for m, prop in enumerate(self.schema):
            col = self.columns[m]
            if prop.uses_codec:
                out[prop.name] = self.codecs[prop.name].decode_many(col)
            else:
                out[prop.name] = [
                    None if np.isnan(v) else float(v) for v in col
                ]
        return out

    def select_objects(self, indices: np.ndarray) -> "TruthTable":
        """Truth table restricted to the objects at ``indices``."""
        indices = np.asarray(indices)
        return TruthTable(
            schema=self.schema,
            object_ids=[self.object_ids[i] for i in indices],
            columns=[c[indices] for c in self.columns],
            codecs=self.codecs,
        )

    def restrict_kind(self, kind: PropertyKind) -> "TruthTable":
        """Truth table with only the properties of ``kind``."""
        keep = [i for i, p in enumerate(self.schema) if p.kind is kind]
        if not keep:
            raise ValueError(f"truth table has no {kind.value} properties")
        return TruthTable(
            schema=DatasetSchema.of(*(self.schema[i] for i in keep)),
            object_ids=self.object_ids,
            columns=[self.columns[i] for i in keep],
            codecs=self.codecs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TruthTable(N={self.n_objects}, M={len(self.schema)}, "
            f"truths={self.n_truths()})"
        )


class DatasetBuilder:
    """Accumulates sparse observations and builds a dense dataset.

    Example
    -------
    >>> from repro.data import schema as s
    >>> builder = DatasetBuilder(s.DatasetSchema.of(
    ...     s.continuous("temp"), s.categorical("condition")))
    >>> builder.add("nyc/2011-07-01", "src_a", "temp", 81.0)
    >>> builder.add("nyc/2011-07-01", "src_a", "condition", "sunny")
    >>> dataset = builder.build()
    """

    def __init__(self, schema: DatasetSchema,
                 codecs: Mapping[str, CategoricalCodec] | None = None) -> None:
        self.schema = schema
        self._codecs: dict[str, CategoricalCodec] = {}
        for prop in schema:
            if prop.uses_codec:
                if codecs is not None and prop.name in codecs:
                    self._codecs[prop.name] = codecs[prop.name]
                elif prop.categories is not None:
                    self._codecs[prop.name] = CategoricalCodec.from_domain(
                        prop.categories
                    )
                else:
                    self._codecs[prop.name] = CategoricalCodec()
        self._objects: list[Hashable] = []
        self._object_index: dict[Hashable, int] = {}
        self._sources: list[Hashable] = []
        self._source_index: dict[Hashable, int] = {}
        # property name -> list of (source_idx, object_idx, encoded value)
        self._cells: dict[str, list[tuple[int, int, float]]] = {
            p.name: [] for p in schema
        }
        self._timestamps: dict[int, int] = {}

    def _object_idx(self, object_id: Hashable) -> int:
        idx = self._object_index.get(object_id)
        if idx is None:
            idx = len(self._objects)
            self._objects.append(object_id)
            self._object_index[object_id] = idx
        return idx

    def _source_idx(self, source_id: Hashable) -> int:
        idx = self._source_index.get(source_id)
        if idx is None:
            idx = len(self._sources)
            self._sources.append(source_id)
            self._source_index[source_id] = idx
        return idx

    def add(self, object_id: Hashable, source_id: Hashable,
            property_name: str, value, timestamp: int | None = None) -> None:
        """Record one observation; later duplicates overwrite earlier ones."""
        prop = self.schema[property_name]
        if value is None:
            return
        i = self._object_idx(object_id)
        k = self._source_idx(source_id)
        if prop.uses_codec:
            encoded: float = self._codecs[prop.name].encode(value)
        else:
            encoded = float(value)
        self._cells[prop.name].append((k, i, encoded))
        if timestamp is not None:
            self._timestamps[i] = int(timestamp)

    def add_row(self, object_id: Hashable, source_id: Hashable,
                values: Mapping[str, object],
                timestamp: int | None = None) -> None:
        """Record one source's observations of several properties at once."""
        for name, value in values.items():
            self.add(object_id, source_id, name, value, timestamp=timestamp)

    def build(self) -> MultiSourceDataset:
        """Materialize the accumulated observations into a dataset."""
        if not self._objects:
            raise ValueError("no observations were added")
        k, n = len(self._sources), len(self._objects)
        properties: list[PropertyObservations] = []
        for prop in self.schema:
            if prop.uses_codec:
                matrix: np.ndarray = np.full((k, n), MISSING_CODE,
                                             dtype=np.int32)
            else:
                matrix = np.full((k, n), np.nan, dtype=np.float64)
            for src, obj, value in self._cells[prop.name]:
                matrix[src, obj] = value
            properties.append(
                PropertyObservations(
                    schema=prop, values=matrix,
                    codec=self._codecs.get(prop.name),
                )
            )
        timestamps = None
        if self._timestamps:
            timestamps = np.zeros(n, dtype=np.int64)
            for i, ts in self._timestamps.items():
                timestamps[i] = ts
        return MultiSourceDataset(
            schema=self.schema,
            source_ids=self._sources,
            object_ids=self._objects,
            properties=properties,
            object_timestamps=timestamps,
        )

    def build_sparse(self):
        """Materialize the accumulated observations into a
        :class:`~repro.data.claims_matrix.ClaimsMatrix` without ever
        allocating a dense ``K x N`` matrix.

        Later duplicates overwrite earlier ones, matching
        :meth:`build`.
        """
        from .claims_matrix import ClaimsMatrix, PropertyClaims
        if not self._objects:
            raise ValueError("no observations were added")
        k, n = len(self._sources), len(self._objects)
        properties: list[PropertyClaims] = []
        for prop in self.schema:
            cells = self._cells[prop.name]
            if cells:
                src = np.array([c[0] for c in cells], dtype=np.int32)
                obj = np.array([c[1] for c in cells], dtype=np.int32)
                val = np.array([c[2] for c in cells], dtype=np.float64)
                # keep only the LAST claim per (source, object) cell,
                # matching dense build() overwrite semantics
                order = np.lexsort((np.arange(len(cells)), src, obj))
                src, obj, val = src[order], obj[order], val[order]
                cell_key = obj.astype(np.int64) * k + src
                last = np.ones(len(cells), dtype=bool)
                last[:-1] = cell_key[1:] != cell_key[:-1]
                src, obj, val = src[last], obj[last], val[last]
            else:
                src = np.empty(0, dtype=np.int32)
                obj = np.empty(0, dtype=np.int32)
                val = np.empty(0, dtype=np.float64)
            properties.append(PropertyClaims(
                schema=prop,
                values=(val.astype(np.int32) if prop.uses_codec else val),
                source_idx=src,
                object_idx=obj,
                n_objects=n,
                n_sources=k,
                codec=self._codecs.get(prop.name),
                canonicalize=False,  # already object-major via lexsort
            ))
        timestamps = None
        if self._timestamps:
            timestamps = np.zeros(n, dtype=np.int64)
            for i, ts in self._timestamps.items():
                timestamps[i] = ts
        return ClaimsMatrix(
            schema=self.schema,
            source_ids=self._sources,
            object_ids=self._objects,
            properties=properties,
            object_timestamps=timestamps,
        )


def iter_entries(dataset: MultiSourceDataset) -> Iterator[tuple[int, int]]:
    """Yield (object index, property index) for every observed entry."""
    for m, prop in enumerate(dataset.properties):
        for i in np.flatnonzero(prop.entry_mask()):
            yield int(i), m
