"""TruthService — the long-lived serving facade over the stream layers.

The service composes the layered streaming stack into the
ingest/read/snapshot surface the ROADMAP's serving story asks for:

* :class:`~repro.streaming.store.ClaimStore` absorbs arriving claims
  and tracks the dirty set;
* :class:`~repro.streaming.icrh.IncrementalCRH` holds the
  Algorithm-2 state and advances it one sealed window at a time;
* :class:`~repro.streaming.planner.RecomputePlanner` re-resolves only
  dirty objects through the shared segment kernels;
* :class:`~repro.streaming.state.TruthCache` holds the warm truths
  each publication freezes into the snapshot
  :meth:`TruthService.get_truth` reads.

Windowing: a window *seals* — runs one Algorithm-2 chunk step — once
claims for more than ``window`` distinct timestamps are pending, or on
:meth:`TruthService.flush`.  Sealed truths are chunk-final, matching
the batch :func:`~repro.streaming.icrh.icrh` stitching bit for bit
when the stream is replayed in canonical order (time-major, then
object, then ascending source — :func:`iter_dataset_claims` yields
exactly that order).  Claims that arrive for already-sealed time
ranges never rewrite weight history (I-CRH "never revisits past
data"); they mark their object dirty, and its truth is re-resolved
under the *current* weights — identical to what a full recompute
would produce for that object.

Snapshots persist the claim store via the sparse
:func:`repro.data.io.save_dataset` format (``schema.json`` +
``claims.npz`` + ``dataset.json``) plus ``state.npz`` (accumulators,
weights, history, truth cache) and ``service.json`` (config, window
bookkeeping, counters).  Restoring canonicalizes the stored claim
order — deterministic, and documented as part of the format.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core.losses import losses_for_schema
from ..core.regularizers import (
    ExponentialWeights,
    LpNormWeights,
    TopJSelectionWeights,
)
from ..data.io import load_dataset, save_dataset
from ..data.records import Record
from ..data.schema import DatasetSchema
from ..data.table import TruthTable
from ..observability import record
from ..observability.tracer import Tracer
from .icrh import ICRHConfig, IncrementalCRH
from .planner import RecomputePlanner, resolve_truths
from .state import TruthCache
from .store import Claim, ClaimStore


@dataclass(frozen=True)
class TruthSnapshot:
    """One immutable published view of the truth cache.

    Publications are copy-on-write: the columns are read-only views
    frozen by :meth:`~repro.streaming.state.TruthCache.publish`, so a
    reader holding a snapshot sees a consistent truth state forever —
    later seals and recomputes copy the backing buffers instead of
    mutating them in place.  ``seq`` increases by one per publication.
    """

    #: monotone publication number (0 is the empty initial snapshot)
    seq: int
    #: objects covered by the snapshot (ids registered later are absent)
    n_objects: int
    #: read-only truth columns, one per schema property
    columns: tuple


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`TruthService.ingest` batch did."""

    #: claims absorbed from the batch
    ingested_claims: int
    #: objects first seen in the batch
    new_objects: int
    #: sources first seen in the batch
    new_sources: int
    #: windows sealed (Algorithm-2 chunk steps run) by the batch
    windows_sealed: int
    #: dirty-set size when the batch finished absorbing claims
    dirty_objects: int
    #: objects the recompute planner re-resolved afterwards
    recomputed_objects: int
    #: wall-clock seconds the batch took end to end
    elapsed_seconds: float


def as_claim(item) -> Claim:
    """Normalize a claim-like input to a :class:`Claim`.

    Accepts :class:`Claim`, :class:`repro.data.records.Record`, or a
    5-tuple ``(object_id, property_name, source_id, value, timestamp)``.
    """
    if isinstance(item, Claim):
        return item
    if isinstance(item, Record):
        return Claim(item.entry.object_id, item.entry.property_name,
                     item.source_id, item.value, item.timestamp)
    if isinstance(item, (tuple, list)) and len(item) == 5:
        return Claim(*item)
    raise TypeError(
        f"cannot interpret {type(item).__name__} as a claim; pass a "
        f"Claim, a Record, or a (object_id, property_name, source_id, "
        f"value, timestamp) tuple"
    )


def iter_dataset_claims(dataset) -> Iterator[Claim]:
    """Yield a timestamped dataset's claims in canonical replay order.

    Order: ascending timestamp (stable over dataset object order
    within a timestamp), then property, then ascending source index —
    the claim order under which replaying through
    :meth:`TruthService.ingest` is bit-identical to batch
    :func:`~repro.streaming.icrh.icrh` on the time-sorted dataset.
    Codec-backed values are yielded as decoded labels.
    """
    timestamps = dataset.object_timestamps
    if timestamps is None:
        raise ValueError("dataset has no object timestamps to replay")
    timestamps = np.asarray(timestamps)
    codecs = dataset.codecs()
    views = [prop.claim_view() for prop in dataset.properties]
    decoders = [codecs.get(prop.name) for prop in dataset.schema]
    for i in np.argsort(timestamps, kind="stable"):
        object_id = dataset.object_ids[i]
        stamp = timestamps[i]
        for prop, view, codec in zip(dataset.schema, views, decoders):
            lo, hi = int(view.indptr[i]), int(view.indptr[i + 1])
            for c in range(lo, hi):
                value = (codec.decode(int(view.values[c]))
                         if codec is not None else float(view.values[c]))
                yield Claim(object_id, prop.name,
                            dataset.source_ids[int(view.source_idx[c])],
                            value, stamp)


# ---------------------------------------------------------------------
# config (de)serialization for snapshots
# ---------------------------------------------------------------------

def _scheme_to_dict(scheme) -> dict:
    """JSON form of a built-in weight scheme (snapshot format)."""
    if isinstance(scheme, ExponentialWeights):
        return {"name": "exponential", "normalizer": scheme.normalizer,
                "floor_ratio": scheme.floor_ratio}
    if isinstance(scheme, LpNormWeights):
        return {"name": "lp", "p": scheme.p}
    if isinstance(scheme, TopJSelectionWeights):
        return {"name": "top_j", "j": scheme.j}
    raise ValueError(
        f"snapshots support the built-in weight schemes only, "
        f"got {scheme!r}"
    )


def _scheme_from_dict(data: dict):
    """Rebuild a weight scheme from its snapshot JSON form."""
    name = data.get("name")
    if name == "exponential":
        return ExponentialWeights(normalizer=data["normalizer"],
                                  floor_ratio=data["floor_ratio"])
    if name == "lp":
        return LpNormWeights(p=data["p"])
    if name == "top_j":
        return TopJSelectionWeights(j=data["j"])
    raise ValueError(f"unknown weight scheme {name!r} in snapshot")


def _config_to_dict(config: ICRHConfig) -> dict:
    """JSON form of an :class:`~repro.streaming.icrh.ICRHConfig`."""
    return {
        "decay": config.decay,
        "categorical_loss": config.categorical_loss,
        "continuous_loss": config.continuous_loss,
        "text_loss": config.text_loss,
        "normalize_by_counts": config.normalize_by_counts,
        "tol": config.tol,
        "weight_scheme": _scheme_to_dict(config.weight_scheme),
    }


def _config_from_dict(data: dict) -> ICRHConfig:
    """Rebuild an :class:`~repro.streaming.icrh.ICRHConfig` from JSON.

    Ignores the ``backend`` key older snapshots carry.
    """
    fields = dict(data)
    fields.pop("backend", None)
    scheme = _scheme_from_dict(fields.pop("weight_scheme"))
    return ICRHConfig(weight_scheme=scheme, **fields)


#: schema version stamped into ``service.json``
SNAPSHOT_SCHEMA = 1

#: the lifetime counters a service keeps and a snapshot persists
SERVING_TOTALS = ("ingested_claims", "windows_sealed",
                  "recomputed_objects", "read_objects")


class TruthService:
    """Long-lived truth serving: ingest claims, read truths and weights.

    >>> service = TruthService(dataset.schema, window=2,
    ...                        codecs=dataset.codecs())
    >>> service.ingest(iter_dataset_claims(dataset))
    >>> service.flush()                      # seal the tail window
    >>> truths = service.get_truth(dataset.object_ids[:10])
    >>> weights = service.get_weights()

    ``codecs`` seeds the store's label coding (pass the source
    dataset's codecs when replaying one, so categorical codes — and
    vote tie-breaks — line up with the batch oracle).  Chunks
    assembled by the claim store run sparse, in ingestion claim order,
    which is what replay equivalence rests on.

    With a ``tracer`` (a :class:`~repro.observability.MetricsRegistry`
    for live metrics, or any trace sink) the service emits one record
    per ``ingest``, seal, ``get_truth`` and publication, carrying that
    call's deltas; without one it builds no records.  Lifetime totals
    live on the service either way (:meth:`metrics`, snapshots).
    """

    def __init__(self, schema: DatasetSchema, *, window: int = 1,
                 config: ICRHConfig | None = None, codecs=None,
                 tracer: Tracer | None = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.schema = schema
        self.window = int(window)
        self.config = config or ICRHConfig()
        self.tracer = tracer
        self._store = ClaimStore(schema, codecs=codecs)
        self._cache = TruthCache(schema)
        self._planner = RecomputePlanner()
        self._model = IncrementalCRH(self.config)
        self._losses = losses_for_schema(schema, self.config)
        #: pending (unsealed) timestamps -> object indices, arrival order
        self._pending: dict[float, list[int]] = {}
        self._sealed_high: float | None = None
        #: lifetime serving totals (metrics() and the snapshot's totals)
        self._totals = dict.fromkeys(SERVING_TOTALS, 0)
        self._snapshot: TruthSnapshot | None = None
        self._publish()

    # ------------------------------------------------------------------
    @property
    def source_ids(self) -> tuple:
        """Sources seen so far, in first-appearance order."""
        return self._store.source_ids

    @property
    def object_ids(self) -> tuple:
        """Objects seen so far, in first-appearance order."""
        return self._store.object_ids

    @property
    def n_objects(self) -> int:
        """Objects seen so far."""
        return self._store.n_objects

    @property
    def n_sources(self) -> int:
        """Sources seen so far."""
        return self._store.n_sources

    @property
    def store(self) -> ClaimStore:
        """The underlying claim store (read-mostly introspection)."""
        return self._store

    @property
    def model(self) -> IncrementalCRH:
        """The underlying Algorithm-2 model (weights, history)."""
        return self._model

    def _current_weights(self) -> np.ndarray:
        """Weights over *all* store sources, in store order.

        The model registers the store's source list (a prefix of the
        current one) at each seal; sources that arrived since carry the
        Algorithm-2 line-1 weight of 1.
        """
        weights = np.ones(self._store.n_sources)
        k = self._model.n_sources
        if k:
            weights[:k] = self._model.weights
        return weights

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, claims: Iterable) -> IngestReport:
        """Absorb a batch of claims, sealing windows as they complete.

        Each claim is a :class:`~repro.streaming.store.Claim` (or
        anything :func:`as_claim` accepts) and must carry a timestamp
        and a value that is neither ``None`` nor NaN.  The batch is
        validated up front, then stored column-wise, split only where
        a new object's timestamp completes a window: the claims up to
        and including that object's first claim are stored, the window
        seals, and storing resumes after it — so seals see exactly the
        claims and sources that arrived before the sealing claim.
        After the batch is absorbed, the recompute planner re-resolves
        every dirty object under the current weights and the result is
        published, so reads after ``ingest`` returns see the batch.  A
        bad claim raises after the claims before it are absorbed,
        resolved and published, as if the batch had ended there; no id
        or label of the bad claim or any later one is registered.
        """
        started = time.perf_counter()
        store = self._store
        k_before = store.n_sources
        n_before = store.n_objects
        batch: list[Claim] = []
        error = None
        try:
            for item in claims:
                batch.append(item if isinstance(item, Claim)
                             else as_claim(item))
        except Exception as exc:
            error = exc
        absorbed = 0
        sealed = 0
        try:
            columns, bad = store.columns(batch)
            error = bad if bad is not None else error
            stamps = columns.timestamps
            for p in columns.new_objects.tolist():
                stamp = float(stamps[p])
                if (self._sealed_high is not None
                        and stamp <= self._sealed_high):
                    # Late object in a sealed time range: dirty only;
                    # weights are never rewritten.
                    continue
                obj = int(columns.object_index[p])
                waiting = self._pending.get(stamp)
                if waiting is not None:
                    waiting.append(obj)
                    continue
                self._pending[stamp] = [obj]
                if len(self._pending) > self.window:
                    store.absorb(columns, absorbed, p + 1)
                    absorbed = p + 1
                    sealed += self._seal_ready()
            store.absorb(columns, absorbed)
            absorbed = columns.timestamps.size
        finally:
            dirty_after = len(store.dirty)
            recomputed = self._recompute_dirty()
            elapsed = time.perf_counter() - started
            self._totals["ingested_claims"] += absorbed
            self._totals["recomputed_objects"] += recomputed
            if self.tracer is not None:
                self.tracer.emit(record(
                    "ingest", ingested_claims=absorbed,
                    recomputed_objects=recomputed, ingest_seconds=elapsed,
                ))
            self._publish()
        if error is not None:
            raise error
        return IngestReport(
            ingested_claims=absorbed,
            new_objects=store.n_objects - n_before,
            new_sources=store.n_sources - k_before,
            windows_sealed=sealed,
            dirty_objects=dirty_after,
            recomputed_objects=recomputed,
            elapsed_seconds=elapsed,
        )

    def flush(self) -> int:
        """Seal every pending window (end-of-stream or checkpointing).

        Returns how many windows were sealed.  After ``ingest`` of a
        whole stream plus ``flush``, the service state matches a batch
        :func:`~repro.streaming.icrh.icrh` run over the same stream.
        """
        sealed = 0
        while self._pending:
            window_ts = sorted(self._pending)[:self.window]
            self._seal(window_ts)
            sealed += 1
        self._publish()
        return sealed

    def _seal_ready(self) -> int:
        """Seal windows while more than ``window`` timestamps pend."""
        sealed = 0
        while len(self._pending) > self.window:
            window_ts = sorted(self._pending)[:self.window]
            self._seal(window_ts)
            sealed += 1
        return sealed

    def _seal(self, window_ts) -> None:
        """Run one Algorithm-2 chunk step over the window's objects."""
        tracing = self.tracer is not None
        started = time.perf_counter() if tracing else 0.0
        objects: list[int] = []
        for stamp in sorted(window_ts):
            objects.extend(self._pending.pop(stamp))
        indices = np.asarray(objects, dtype=np.int64)
        chunk = self._store.dataset_for(indices)
        truths = self._model.partial_fit(chunk)
        self._cache.ensure(self._store.n_objects)
        self._cache.store(indices, truths.columns)
        # Window members are freshly resolved; anything else stays
        # dirty for the planner.
        self._store.dirty.difference_update(objects)
        high = float(max(window_ts))
        self._sealed_high = (high if self._sealed_high is None
                             else max(self._sealed_high, high))
        self._totals["windows_sealed"] += 1
        if tracing:
            self.tracer.emit(record(
                "seal", windows_sealed=1,
                seal_seconds=time.perf_counter() - started,
            ))

    def _recompute_dirty(self) -> int:
        """Drain the dirty set through the planner; returns how many
        objects were re-resolved."""
        if not self._store.dirty:
            return 0
        indices = self._planner.plan(self._store.dirty)
        self._resolve_into_cache(indices)
        self._store.dirty.clear()
        return int(indices.size)

    def _resolve_into_cache(self, indices: np.ndarray) -> None:
        """Re-resolve ``indices`` under current weights into the cache."""
        columns = resolve_truths(self._store, indices,
                                 self._current_weights(), self._losses)
        self._cache.ensure(self._store.n_objects)
        self._cache.store(indices, columns)

    def recompute_all(self) -> int:
        """Re-resolve *every* object under the current weights.

        The full-recompute oracle the dirty-set path is tested
        against; also useful to refresh chunk-final truths after the
        weights have drifted.  Returns how many objects were resolved.
        """
        if self._store.n_objects == 0:
            return 0
        indices = np.arange(self._store.n_objects, dtype=np.int64)
        self._resolve_into_cache(indices)
        self._store.dirty.clear()
        self._publish()
        return int(indices.size)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _publish(self) -> None:
        """Publish the current truth cache as an immutable snapshot.

        Readers pick the snapshot up with one attribute read; the
        reference swap is atomic, so :meth:`get_truth` never observes
        a half-written state.  Traced, it emits the serving gauges.
        """
        self._cache.ensure(self._store.n_objects)
        previous = self._snapshot
        seq = 0 if previous is None else previous.seq + 1
        self._snapshot = TruthSnapshot(
            seq=seq, n_objects=self._cache.n_objects,
            columns=self._cache.publish(),
        )
        if self.tracer is not None:
            drift = self._model.last_weight_delta
            self.tracer.emit(record(
                "publish",
                pending_timestamps=len(self._pending),
                truth_version=self._model.chunks_seen,
                weight_drift=0.0 if drift is None else drift,
                weight_entropy=self._weight_entropy(),
                snapshot_seq=seq,
            ))

    def snapshot_view(self) -> TruthSnapshot:
        """The latest published :class:`TruthSnapshot` (no lock taken)."""
        return self._snapshot

    def get_truth(self, object_ids: Iterable) -> TruthTable:
        """Truths for ``object_ids`` from the latest published snapshot.

        Lock-free from any thread: one atomic reference read, then
        pure array indexing against immutable columns, so a concurrent
        seal or recompute can never tear the result — every value
        returned belongs to one single publication.  Every mutating
        call (:meth:`ingest`, :meth:`flush`, :meth:`recompute_all`)
        publishes before it returns, so a caller always reads its own
        writes.  Unknown ids raise ``KeyError``, and so do ids an
        ingest running on another thread has not published yet.  The
        ``read_objects`` total is updated without a lock, so concurrent
        readers can undercount it.
        """
        tracing = self.tracer is not None
        started = time.perf_counter() if tracing else 0.0
        snapshot = self._snapshot
        ids = list(object_ids)
        index = self._store._object_index
        indices = np.empty(len(ids), dtype=np.int64)
        for j, object_id in enumerate(ids):
            position = index.get(object_id)
            if position is None or position >= snapshot.n_objects:
                raise KeyError(
                    f"object {object_id!r} is not in the published "
                    f"truth snapshot (seq {snapshot.seq})"
                )
            indices[j] = position
        table = TruthTable(
            schema=self.schema,
            object_ids=ids,
            columns=[column[indices] for column in snapshot.columns],
            codecs=self._store.codecs(),
        )
        self._totals["read_objects"] += len(ids)
        if tracing:
            self.tracer.emit(record(
                "read", read_objects=len(ids),
                read_seconds=time.perf_counter() - started,
            ))
        return table

    def get_weights(self) -> np.ndarray:
        """Current per-source weights, aligned with :attr:`source_ids`.

        Sources not yet covered by a sealed window carry the
        Algorithm-2 line-1 weight of 1.
        """
        return self._current_weights()

    def weights_by_source(self) -> dict:
        """Weights keyed by source id (convenience for reporting)."""
        return dict(zip(self._store.source_ids, self._current_weights()))

    def _weight_entropy(self) -> float:
        """Shannon entropy of the normalized current weights (nats)."""
        weights = self._current_weights()
        total = float(weights.sum())
        if total <= 0:
            return 0.0
        p = weights[weights > 0] / total
        return float(-(p * np.log(p)).sum())

    def metrics(self) -> dict:
        """Serving counters: sizes, windows, reads, publications.

        The totals are the service's own, the same traced or not;
        every key is a ``docs/OBSERVABILITY.md`` glossary name.
        """
        totals = self._totals
        return {
            "n_sources": self._store.n_sources,
            "n_objects": self._store.n_objects,
            "n_claims": self._store.n_claims(),
            "windows_sealed": totals["windows_sealed"],
            "pending_timestamps": len(self._pending),
            "ingested_claims": totals["ingested_claims"],
            "recomputed_objects": totals["recomputed_objects"],
            "read_objects": totals["read_objects"],
            "cache_hit_rate": 1.0,
            "snapshot_seq": self._snapshot.seq,
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self, directory) -> None:
        """Persist the full service state under ``directory``.

        Writes the claim store via the sparse
        :func:`repro.data.io.save_dataset` layout, the numeric state
        (accumulators, weights, history, truth cache) as ``state.npz``,
        and the bookkeeping (config, window state, counters) as
        ``service.json``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_dataset(self._store.to_claims_matrix(), directory)
        model = self._model
        self._cache.ensure(self._store.n_objects)
        # Sources register only inside a chunk step, so a model that
        # has seen no chunk has no sources either.
        fitted = model.chunks_seen > 0
        arrays = {
            "accumulated": model.accumulated.copy(),
            "counts": model.counts.copy(),
            "weights": model.weights.copy() if fitted else np.zeros(0),
            "weight_history": (model.weight_history if fitted
                               else np.zeros((0, 0))),
        }
        for m, column in enumerate(self._cache.full_columns()):
            arrays[f"cache_col{m}"] = column
        np.savez(directory / "state.npz", **arrays)
        meta = {
            "snapshot_schema": SNAPSHOT_SCHEMA,
            "window": self.window,
            "config": _config_to_dict(self.config),
            "n_state_sources": model.n_sources,
            "epoch": model.chunks_seen,
            "sealed_high": self._sealed_high,
            "pending": [[stamp, objs]
                        for stamp, objs in self._pending.items()],
            "totals": dict(self._totals),
        }
        (directory / "service.json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def restore(cls, directory, *,
                tracer: Tracer | None = None) -> "TruthService":
        """Rebuild a service from a :meth:`snapshot` directory.

        The lifetime totals continue from the snapshot's; a ``tracer``
        receives them as one ``restore`` record, so a registry's
        counters continue too.

        Keys older snapshots carry are ignored: ``chunks_seen``,
        ``window_advances`` and ``decay_applications`` (``epoch``
        carries the chunk count), the per-object cache versions, the
        ``dirty`` list (every snapshot is taken with the dirty set
        drained) and retired ``totals`` counters.
        """
        directory = Path(directory)
        meta = json.loads((directory / "service.json").read_text())
        if meta.get("snapshot_schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported snapshot_schema "
                f"{meta.get('snapshot_schema')!r} in {directory}"
            )
        matrix = load_dataset(directory)
        service = cls(
            matrix.schema,
            window=int(meta["window"]),
            config=_config_from_dict(meta["config"]),
            codecs=matrix.codecs(),
            tracer=tracer,
        )
        service._store = ClaimStore.from_claims_matrix(matrix)
        bundle = np.load(directory / "state.npz")
        k = int(meta["n_state_sources"])
        if k:
            padded = bundle["weight_history"]
            history = []
            for row in padded:
                observed = np.flatnonzero(~np.isnan(row))
                length = int(observed[-1]) + 1 if observed.size else 0
                history.append(row[:length])
            service._model.load(
                service._store.source_ids[:k],
                bundle["accumulated"], bundle["counts"],
                bundle["weights"], history,
                chunks_seen=int(meta["epoch"]),
            )
        service._cache.load([bundle[f"cache_col{m}"]
                             for m in range(len(matrix.schema))])
        sealed_high = meta.get("sealed_high")
        service._sealed_high = (None if sealed_high is None
                                else float(sealed_high))
        service._pending = {
            float(stamp): [int(i) for i in objs]
            for stamp, objs in meta.get("pending", [])
        }
        totals = meta.get("totals", {})
        for name in SERVING_TOTALS:
            service._totals[name] = int(totals.get(name, 0))
        if tracer is not None:
            tracer.emit(record("restore", **service._totals))
        service._publish()
        return service
