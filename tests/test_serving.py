"""Tests for the layered truth-serving engine (store, planner, service).

The load-bearing guarantees checked here:

* **replay equivalence** — ingesting a timestamped dataset claim by
  claim through :class:`TruthService` and flushing produces weights and
  truths bit-identical to the batch :func:`icrh` oracle;
* **dirty-set recompute** — re-resolving only dirty objects matches the
  full-recompute oracle on every touched object, and late claims never
  rewrite sealed weight history;
* **one read path** — every ``ingest``/``flush`` drains the dirty set
  and publishes before it returns, so ``get_truth`` serves every object
  from the published snapshot;
* **snapshot-isolated reads** — with one writer thread ingesting,
  reader threads calling the lock-free ``get_truth`` only ever observe
  rows of some published snapshot, published snapshots never change,
  and the end state equals the sequential replay.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import DatasetSchema, categorical, continuous, text
from repro.data.encoding import MISSING_CODE
from repro.data.records import EntryId, Record
from repro.datasets import WeatherConfig, generate_weather_dataset
from repro.observability import MetricsRegistry
from repro.streaming import (
    Claim,
    ClaimStore,
    GrowableArray,
    ICRHConfig,
    IncrementalCRH,
    RecomputePlanner,
    TruthService,
    as_claim,
    icrh,
    iter_dataset_claims,
)
from tests.claim_store_reference import assert_same_store, reference_add
from tests.conftest import examples


def assert_published(service) -> None:
    """The invariant the single read path rests on: after a mutating
    call returns, nothing is dirty and the published snapshot covers
    every known object."""
    assert not service.store.dirty
    assert service.snapshot_view().n_objects == service.n_objects


def replay(dataset, window=1, batch=64, **kwargs) -> TruthService:
    """Ingest ``dataset`` claim by claim and flush the tail, checking
    :func:`assert_published` after every call."""
    service = TruthService(dataset.schema, window=window,
                           codecs=dataset.codecs(), **kwargs)
    claims = list(iter_dataset_claims(dataset))
    for start in range(0, len(claims), batch):
        service.ingest(claims[start:start + batch])
        assert_published(service)
    service.flush()
    assert_published(service)
    return service


def weather(seed: int, n_cities: int = 4, n_days: int = 8):
    return generate_weather_dataset(
        WeatherConfig(n_cities=n_cities, n_days=n_days, seed=seed)
    ).dataset


class TestGrowableArray:
    def test_extend_preserves_values(self):
        arr = GrowableArray(np.float64, np.nan, capacity=2)
        for i in range(5):
            arr.extend([float(i)])
        assert len(arr) == 5
        np.testing.assert_array_equal(arr.data, np.arange(5.0))

    def test_growth_is_logarithmic(self):
        arr = GrowableArray(np.int64, 0)
        for i in range(10_000):
            arr.extend([i])
        assert len(arr) == 10_000
        np.testing.assert_array_equal(arr.data, np.arange(10_000))
        # doubling from capacity 16: ceil(log2(10000 / 16)) = 10
        assert arr.growth_events <= 10

    def test_extend_and_resize(self):
        arr = GrowableArray(np.float64, np.nan)
        arr.extend(np.arange(3.0))
        arr.resize_to(5)
        assert len(arr) == 5
        assert np.isnan(arr.data[3:]).all()
        with pytest.raises(ValueError, match="shrink"):
            arr.resize_to(2)


class TestClaimStore:
    def test_first_appearance_registration(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o2", "temp", "b", 1.0, 0.0))
        store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        store.add(Claim("o2", "humidity", "a", 0.5, 0.0))
        assert store.object_ids == ("o2", "o1")
        assert store.source_ids == ("b", "a")
        assert store.object_position("o1") == 1
        with pytest.raises(KeyError):
            store.object_position("o9")

    def test_dirty_set_tracks_touched_objects(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        obj, created = store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        assert created and store.dirty == {obj}
        store.dirty.clear()
        again, created = store.add(Claim("o1", "temp", "b", 3.0, 1.0))
        assert again == obj and not created
        assert store.dirty == {obj}

    def test_duplicate_cell_keeps_latest(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        store.add(Claim("o1", "temp", "a", 9.0, 1.0))
        chunk = store.dataset_for([0])
        view = chunk.properties[0].claim_view()
        np.testing.assert_array_equal(view.values, [9.0])

    def test_dataset_for_preserves_ingestion_order(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        # Two sources claim the same object, worst source first.
        store.add(Claim("o1", "temp", "z", 1.0, 0.0))
        store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        view = store.dataset_for([0]).properties[0].claim_view()
        # Arrival order survives (z before a), not source-sorted order.
        np.testing.assert_array_equal(view.values, [1.0, 2.0])
        np.testing.assert_array_equal(view.source_idx, [0, 1])

    def test_object_timestamp_is_first_claims(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o1", "temp", "a", 2.0, 3.0))
        store.add(Claim("o1", "temp", "b", 4.0, 9.0))
        np.testing.assert_array_equal(store.object_timestamps, [3.0])

    def test_codec_seeding_and_encoding(self, mixed_schema, tiny_dataset):
        store = ClaimStore(mixed_schema, codecs=tiny_dataset.codecs())
        store.add(Claim("o1", "condition", "a", "rain", 0.0))
        chunk = store.dataset_for([0])
        table_codec = chunk.codecs()["condition"]
        assert table_codec.labels[:3] == \
            tiny_dataset.codecs()["condition"].labels[:3]

    def test_round_trip_through_claims_matrix(self, small_weather):
        dataset = small_weather.dataset
        store = ClaimStore(dataset.schema, codecs=dataset.codecs())
        for claim in iter_dataset_claims(dataset):
            store.add(claim)
        rebuilt = ClaimStore.from_claims_matrix(store.to_claims_matrix())
        assert rebuilt.object_ids == store.object_ids
        assert rebuilt.source_ids == store.source_ids
        assert rebuilt.n_claims() == store.n_claims()
        np.testing.assert_array_equal(rebuilt.object_timestamps,
                                      store.object_timestamps)

    def test_unknown_property_rejected(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        with pytest.raises(ValueError, match="unknown property"):
            store.add(Claim("o1", "nope", "a", 1.0, 0.0))


def full_scan_gather(store, m, remap):
    """Reference assembly: property ``m``'s claims for the objects
    ``remap`` selects, found by scanning every stored claim, then
    deduplicated keep-last and stable-sorted by local object."""
    obj = store._obj[m].data
    local = remap[obj]
    keep = np.flatnonzero(local >= 0)
    local = local[keep]
    src = store._src[m].data[keep]
    values = store._values[m].data[keep]
    if keep.size:
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


def assert_matches_full_scan(store, indices):
    """``dataset_for(indices)`` equals the full-scan reference exactly."""
    indices = np.asarray(indices, dtype=np.int64)
    chunk = store.dataset_for(indices)
    remap = np.full(store.n_objects, -1, dtype=np.int64)
    remap[indices] = np.arange(indices.size)
    for m, prop in enumerate(chunk.properties):
        values, src, local = full_scan_gather(store, m, remap)
        view = prop.claim_view()
        np.testing.assert_array_equal(view.values, values)
        np.testing.assert_array_equal(view.source_idx, src)
        np.testing.assert_array_equal(view.object_idx, local)
    assert list(chunk.object_ids) == [store.object_ids[i] for i in indices]
    np.testing.assert_array_equal(chunk.object_timestamps,
                                  store.object_timestamps[indices])


PROPERTIES = ("temp", "humidity", "condition")
LABELS = ("sunny", "cloudy", "rain")


def fuzz_claims(rng, n_claims, first_object=0, late_share=0.2):
    """A seeded claim stream over ``mixed_schema``: objects arrive in
    time order, a ``late_share`` of claims go to an older object, each
    object only ever gets claims for a random subset of properties, and
    three sources make duplicate (object, source, property) cells
    common."""
    claims = []
    allowed = {}
    newest = first_object - 1
    for _ in range(n_claims):
        if newest < first_object or rng.random() < 0.3:
            newest += 1
            allowed[newest] = [p for p in PROPERTIES
                               if rng.random() < 0.7] or ["temp"]
            obj = newest
        elif rng.random() < late_share:
            obj = int(rng.integers(first_object, newest + 1))
        else:
            obj = int(rng.integers(max(first_object, newest - 2),
                                   newest + 1))
        prop = allowed[obj][int(rng.integers(len(allowed[obj])))]
        value = (LABELS[int(rng.integers(3))] if prop == "condition"
                 else float(rng.integers(10)))
        claims.append(Claim(f"o{obj}", prop, f"s{int(rng.integers(3))}",
                            value, float(obj)))
    return claims


def fuzz_selections(rng, n_objects):
    """Unsorted random, recent, single-object, empty and full index
    lists over ``n_objects`` registered objects."""
    selections = [[], [0], [n_objects - 1], list(range(n_objects))]
    size = int(rng.integers(1, n_objects + 1))
    selections.append(rng.choice(n_objects, size=size, replace=False))
    selections.append(rng.permutation(
        np.arange(max(0, n_objects - 3), n_objects)))
    selections.append([int(rng.integers(n_objects))])
    return selections


class TestScanBoundedAssembly:
    """``dataset_for`` scans from the oldest selected object's first
    claim; the result must equal a scan of the whole store."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_scan_oracle(self, mixed_schema, seed):
        rng = np.random.default_rng(seed)
        store = ClaimStore(mixed_schema)
        for i, claim in enumerate(fuzz_claims(rng, 400)):
            store.add(claim)
            if i % 37 == 0:
                for indices in fuzz_selections(rng, store.n_objects):
                    assert_matches_full_scan(store, indices)
        for indices in fuzz_selections(rng, store.n_objects):
            assert_matches_full_scan(store, indices)

    @pytest.mark.parametrize("seed", range(6))
    def test_restored_store_takes_late_claims(self, mixed_schema, seed):
        rng = np.random.default_rng(100 + seed)
        store = ClaimStore(mixed_schema)
        for claim in fuzz_claims(rng, 200):
            store.add(claim)
        restored = ClaimStore.from_claims_matrix(store.to_claims_matrix())
        # Late claims for objects in the restored prefix, then new ones.
        prefix = restored.n_objects
        for claim in fuzz_claims(rng, 150, late_share=1.0)[:60]:
            if claim.object_id in restored._object_index:
                restored.add(claim)
        for claim in fuzz_claims(rng, 100, first_object=prefix):
            restored.add(claim)
        assert restored.n_objects > prefix
        for indices in fuzz_selections(rng, restored.n_objects):
            assert_matches_full_scan(restored, indices)
        for indices in fuzz_selections(rng, prefix):
            assert_matches_full_scan(restored, indices)

    def test_restored_first_positions_are_row_starts(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o0", "temp", "b", 1.0, 0.0))
        store.add(Claim("o1", "humidity", "a", 0.5, 1.0))
        store.add(Claim("o1", "temp", "a", 2.0, 1.0))
        store.add(Claim("o0", "temp", "a", 3.0, 0.0))
        restored = ClaimStore.from_claims_matrix(store.to_claims_matrix())
        # temp is object-major after restore: o0 (a, b), then o1 (a).
        np.testing.assert_array_equal(restored._first[0].data, [0, 2])
        np.testing.assert_array_equal(
            restored._first[1].data[1:], [0])
        assert restored._scan_start(1, np.array([0])) == 1

    def test_late_claim_for_first_object_scans_from_zero(
            self, mixed_schema):
        store = ClaimStore(mixed_schema)
        for obj in range(20):
            store.add(Claim(f"o{obj}", "temp", "a", float(obj), obj))
        store.add(Claim("o0", "temp", "b", 99.0, 0.0))
        indices = np.array([19, 0])
        assert store._scan_start(0, indices) == 0
        assert_matches_full_scan(store, indices)

    def test_scan_start(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o0", "temp", "a", 1.0, 0.0))
        store.add(Claim("o1", "temp", "a", 2.0, 1.0))
        store.add(Claim("o2", "temp", "a", 3.0, 2.0))
        store.add(Claim("o1", "humidity", "a", 0.5, 1.0))
        store.add(Claim("o0", "temp", "b", 4.0, 0.0))
        temp, humidity = 0, 1
        # The oldest selected object's first claim, whatever the order.
        assert store._scan_start(temp, np.array([2, 1])) == 1
        assert store._scan_start(temp, np.array([2])) == 2
        assert store._scan_start(temp, np.array([2, 0])) == 0
        assert store._scan_start(humidity, np.array([2, 1])) == 0
        # No selected object has a claim: the column length.
        assert store._scan_start(humidity, np.array([0, 2])) == 1
        assert store._scan_start(2, np.array([0, 1, 2])) == 0
        assert store._scan_start(temp, np.array([], dtype=np.int64)) == 4


ORACLE_OBJECTS = tuple(f"o{i}" for i in range(6))
ORACLE_SOURCES = tuple(f"s{i}" for i in range(5))

#: ways to make a good claim bad, each named by what is wrong with it
BAD_CLAIMS = {
    "none-value": lambda c: c._replace(value=None),
    "nan-value": lambda c: c._replace(value=float("nan")),
    "none-label": lambda c: c._replace(property_name="condition",
                                       value=None),
    "nan-label": lambda c: c._replace(property_name="condition",
                                      value=float("nan")),
    "no-timestamp": lambda c: c._replace(timestamp=None),
    "nan-timestamp": lambda c: c._replace(timestamp=float("nan")),
    "text-timestamp": lambda c: c._replace(timestamp="noon"),
    "huge-timestamp": lambda c: c._replace(timestamp=10 ** 400),
    "unknown-property": lambda c: c._replace(property_name="nope"),
    "unhashable-property": lambda c: c._replace(property_name=["temp"]),
    "value-not-a-number": lambda c: c._replace(property_name="temp",
                                               value="warm"),
    "huge-value": lambda c: c._replace(property_name="temp",
                                       value=10 ** 400),
    "unhashable-label": lambda c: c._replace(property_name="condition",
                                             value=["rain"]),
    "unhashable-object": lambda c: c._replace(object_id=["o1"]),
    "unhashable-source": lambda c: c._replace(source_id={"s": 1}),
}


@st.composite
def oracle_batches(draw):
    """A warm-up list and a batch over ``mixed_schema``: few objects and
    sources (so duplicate cells, late claims for earlier objects and new
    sources mid-batch are common), interleaved properties, and at most
    one bad claim at a random position; plus cut points that split the
    batch into consecutive segments."""
    def claim():
        prop = draw(st.sampled_from(PROPERTIES))
        value = (draw(st.sampled_from(LABELS + ("fog",)))
                 if prop == "condition"
                 else draw(st.integers(0, 9) | st.floats(-5, 5)))
        return Claim(draw(st.sampled_from(ORACLE_OBJECTS)), prop,
                     draw(st.sampled_from(ORACLE_SOURCES)), value,
                     float(draw(st.integers(0, 4))))

    warm = [claim() for _ in range(draw(st.integers(0, 6)))]
    batch = [claim() for _ in range(draw(st.integers(0, 30)))]
    if batch and draw(st.booleans()):
        at = draw(st.integers(0, len(batch) - 1))
        batch[at] = BAD_CLAIMS[draw(st.sampled_from(sorted(BAD_CLAIMS)))](
            batch[at])
    cuts = sorted(draw(st.lists(st.integers(0, len(batch)), max_size=3)))
    return warm, batch, cuts


class TestBatchPathOracle:
    """``ClaimStore.columns`` + ``absorb`` leave exactly the state the
    per-claim reference (``tests/claim_store_reference.py``) leaves."""

    @settings(max_examples=examples(200))
    @given(oracle_batches())
    def test_batch_path_matches_per_claim_reference(self, drawn):
        warm, batch, cuts = drawn
        schema = DatasetSchema.of(
            continuous("temp", unit="F"), continuous("humidity"),
            categorical("condition", ["sunny", "cloudy", "rain"]))
        store, reference = ClaimStore(schema), ClaimStore(schema)
        for claim in warm:
            store.add(claim)
            reference_add(reference, claim)
        columns, error = store.columns(batch)
        good = columns.timestamps.size
        for start, stop in zip([0] + cuts, cuts + [good]):
            store.absorb(columns, min(start, good), min(stop, good))
        absorbed = 0
        for claim in batch:
            try:
                reference_add(reference, claim)
            except (ValueError, TypeError):
                break
            absorbed += 1
        assert good == absorbed
        assert (error is None) == (absorbed == len(batch))
        assert_same_store(store, reference)

    def test_stale_columns_are_refused(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        columns, _ = store.columns([Claim("o1", "temp", "a", 1.0, 0.0),
                                    Claim("o2", "temp", "a", 2.0, 1.0)])
        with pytest.raises(ValueError, match="stale"):
            store.absorb(columns, 1)
        store.absorb(columns)
        with pytest.raises(ValueError, match="stale"):
            store.absorb(columns)

    def test_bad_claim_reports_its_own_error(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        batch = [Claim("o1", "temp", "a", 1.0, 0.0),
                 Claim("o2", "humidity", "b", None, 1.0),
                 Claim("o3", "nope", "a", 1.0, 2.0)]
        columns, error = store.columns(batch)
        assert columns.timestamps.size == 1
        assert isinstance(error, ValueError)
        assert "'o2'" in str(error) and "'humidity'" in str(error)
        assert store.n_objects == 0 and store.n_sources == 0


class TestTruthState:
    """Source registration on the I-CRH model's per-source state."""

    def test_registration_is_amortized(self):
        model = IncrementalCRH()
        model.register([f"s{k}" for k in range(5_000)])
        assert model.n_sources == 5_000
        assert model.growth_events <= 3 * 9  # 3 arrays, log2(5000/16)

    def test_register_is_idempotent(self):
        model = IncrementalCRH()
        first = model.register(["a", "b"])
        second = model.register(["b", "a", "c"])
        np.testing.assert_array_equal(first, [0, 1])
        np.testing.assert_array_equal(second, [1, 0, 2])
        assert model.source_ids == ("a", "b", "c")


class TestRecomputePlanner:
    def test_empty_dirty_set_plans_nothing(self):
        assert RecomputePlanner().plan(set()).size == 0

    def test_small_dirty_set_plans_dirty_scope(self):
        np.testing.assert_array_equal(RecomputePlanner().plan({7, 3}),
                                      [3, 7])


def assert_same_serving_state(service, oracle_result, dataset):
    """Weights (by source id) and truths bit-identical to the oracle."""
    oracle_weights = dict(zip(dataset.source_ids, oracle_result.weights))
    served = service.weights_by_source()
    assert set(served) == set(oracle_weights)
    for source_id, weight in oracle_weights.items():
        assert served[source_id] == weight, source_id
    table = service.get_truth(list(dataset.object_ids))
    for col_served, col_oracle in zip(table.columns,
                                      oracle_result.truths.columns):
        np.testing.assert_array_equal(col_served, col_oracle)


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window1_bit_identical_to_batch_icrh(self, seed):
        dataset = weather(seed)
        service = replay(dataset, window=1)
        oracle = icrh(dataset, window=1)
        assert_same_serving_state(service, oracle, dataset)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_multi_timestamp_window_matches_time_sorted_oracle(self, seed):
        dataset = weather(seed)
        order = np.argsort(dataset.object_timestamps, kind="stable")
        sorted_view = dataset.select_objects(order)
        service = replay(dataset, window=3)
        oracle = icrh(sorted_view, window=3)
        assert_same_serving_state(service, oracle, sorted_view)

    def test_batch_size_does_not_matter(self):
        dataset = weather(1)
        one = replay(dataset, window=2, batch=1)
        big = replay(dataset, window=2, batch=10_000)
        np.testing.assert_array_equal(one.get_weights(),
                                      big.get_weights())
        for col_a, col_b in zip(
                one.get_truth(list(dataset.object_ids)).columns,
                big.get_truth(list(dataset.object_ids)).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_nondefault_config_replays_identically(self):
        dataset = weather(2)
        config = ICRHConfig(decay=0.3, normalize_by_counts=False)
        service = replay(dataset, window=1, config=config)
        oracle = icrh(dataset, window=1, config=config)
        assert_same_serving_state(service, oracle, dataset)

    @settings(max_examples=examples(30))
    @given(seed=st.integers(0, 19), n_cities=st.integers(1, 4),
           n_days=st.integers(2, 30), window=st.integers(1, 3),
           batch=st.integers(1, 50))
    @example(seed=0, n_cities=2, n_days=30, window=1, batch=7)
    def test_replay_matches_icrh_under_any_batch_size(
            self, seed, n_cities, n_days, window, batch):
        """The replay contract holds whatever the ingest batch size:
        sealed truths are chunk-final, so no batch boundary may
        re-resolve a clean object under later weights.  ``replay``
        also checks that every call leaves the dirty set drained and
        the snapshot covering every object."""
        dataset = weather(seed, n_cities=n_cities, n_days=n_days)
        order = np.argsort(dataset.object_timestamps, kind="stable")
        sorted_view = dataset.select_objects(order)
        service = replay(dataset, window=window, batch=batch)
        oracle = icrh(sorted_view, window=window)
        assert_same_serving_state(service, oracle, sorted_view)


class TestDirtyRecompute:
    def test_late_claim_dirties_without_sealing(self, small_weather):
        dataset = small_weather.dataset
        service = replay(dataset, window=2)
        history_before = service.model.weight_history.copy()
        weights_before = service.get_weights().copy()
        object_id = dataset.object_ids[0]
        report = service.ingest([
            Claim(object_id, "high_temp", dataset.source_ids[0],
                  99.0, 0.0),
        ])
        assert report.windows_sealed == 0
        assert report.new_objects == 0
        assert report.recomputed_objects >= 1
        # Sealed weight history is never rewritten by late arrivals.
        np.testing.assert_array_equal(service.model.weight_history,
                                      history_before)
        np.testing.assert_array_equal(service.get_weights(),
                                      weights_before)

    def test_dirty_recompute_matches_full_oracle(self, small_weather):
        """On the touched object, re-resolving just the dirty segment
        equals a full recompute — the truth step is separable per
        object.  (Untouched objects deliberately keep their chunk-final
        truths, so only the dirty object is compared.)"""
        dataset = small_weather.dataset
        served = replay(dataset, window=2)
        oracle = replay(dataset, window=2)
        touched = dataset.object_ids[0]
        late = Claim(touched, "high_temp", dataset.source_ids[0],
                     99.0, 0.0)
        served.ingest([late])   # dirty-set path
        oracle.ingest([late])
        assert_published(served)
        assert_published(oracle)
        oracle.recompute_all()  # full-recompute oracle
        assert_published(oracle)
        for col_a, col_b in zip(served.get_truth([touched]).columns,
                                oracle.get_truth([touched]).columns):
            np.testing.assert_array_equal(col_a, col_b)


class TestSnapshotRestore:
    def test_round_trip_reads_identically(self, small_weather, tmp_path):
        dataset = small_weather.dataset
        service = replay(dataset, window=2)
        service.snapshot(tmp_path / "snap")
        restored = TruthService.restore(tmp_path / "snap")
        assert restored.object_ids == service.object_ids
        assert restored.source_ids == service.source_ids
        np.testing.assert_array_equal(restored.get_weights(),
                                      service.get_weights())
        np.testing.assert_array_equal(restored.model.weight_history,
                                      service.model.weight_history)
        ids = list(dataset.object_ids)
        for col_a, col_b in zip(service.get_truth(ids).columns,
                                restored.get_truth(ids).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_restored_service_keeps_ingesting(self, small_weather,
                                              tmp_path):
        dataset = small_weather.dataset
        original = replay(dataset, window=2)
        original.snapshot(tmp_path / "snap")
        restored = TruthService.restore(tmp_path / "snap")
        horizon = float(dataset.object_timestamps.max())
        fresh = [
            Claim("new-object", "high_temp", dataset.source_ids[0],
                  50.0, horizon + 1.0),
            Claim("new-object", "high_temp", dataset.source_ids[1],
                  54.0, horizon + 1.0),
        ]
        for service in (original, restored):
            service.ingest(fresh)
            service.flush()
        np.testing.assert_array_equal(original.get_weights(),
                                      restored.get_weights())
        for col_a, col_b in zip(
                original.get_truth(["new-object"]).columns,
                restored.get_truth(["new-object"]).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_restore_ignores_older_snapshot_keys(self, small_weather,
                                                 tmp_path):
        """Older snapshots carry ``config.backend``, ``chunks_seen``,
        ``window_advances``, ``decay_applications``, the per-object
        cache versions, the dirty list and retired counters; restoring
        one ignores them and the service keeps ingesting
        bit-identically."""
        dataset = small_weather.dataset
        claims = list(iter_dataset_claims(dataset))
        half = len(claims) // 2
        original = TruthService(dataset.schema, window=2,
                                codecs=dataset.codecs())
        original.ingest(claims[:half])
        original.snapshot(tmp_path / "snap")
        meta_path = tmp_path / "snap" / "service.json"
        meta = json.loads(meta_path.read_text())
        assert not {"chunks_seen", "window_advances",
                    "decay_applications", "dirty"} & set(meta)
        assert "backend" not in meta["config"]
        chunks = meta["epoch"]
        meta["config"]["backend"] = "auto"
        meta.update(chunks_seen=chunks, window_advances=chunks,
                    decay_applications=max(chunks - 1, 0), dirty=[])
        meta["totals"].update(cache_hits=3, cache_misses=1,
                              snapshot_reads=2)
        meta_path.write_text(json.dumps(meta))
        state_path = tmp_path / "snap" / "state.npz"
        with np.load(state_path) as bundle:
            arrays = dict(bundle)
        assert "cache_versions" not in arrays
        arrays["cache_versions"] = np.zeros(original.n_objects,
                                            dtype=np.int64)
        np.savez(state_path, **arrays)
        registry = MetricsRegistry()
        restored = TruthService.restore(tmp_path / "snap", tracer=registry)
        names = {i.name for i in registry.instruments()}
        assert not {"cache_hits", "cache_misses",
                    "snapshot_reads"} & names
        for service in (original, restored):
            service.ingest(claims[half:])
            service.flush()
        assert restored.model.chunks_seen == original.model.chunks_seen
        np.testing.assert_array_equal(restored.get_weights(),
                                      original.get_weights())
        np.testing.assert_array_equal(restored.model.weight_history,
                                      original.model.weight_history)
        ids = list(dataset.object_ids)
        for col_a, col_b in zip(original.get_truth(ids).columns,
                                restored.get_truth(ids).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_snapshot_rejects_custom_scheme(self, small_weather,
                                            tmp_path):
        class Custom:
            def weights(self, per_source):
                return per_source

        dataset = small_weather.dataset
        service = TruthService(dataset.schema,
                               config=ICRHConfig(weight_scheme=Custom()),
                               codecs=dataset.codecs())
        service.ingest(iter_dataset_claims(dataset))
        service.flush()
        with pytest.raises(ValueError, match="weight scheme"):
            service.snapshot(tmp_path / "snap")


class TestObservability:
    def test_metrics_counters(self, small_weather):
        dataset = small_weather.dataset
        service = replay(dataset, window=2)
        service.get_truth(list(dataset.object_ids))
        metrics = service.metrics()
        assert metrics["n_objects"] == dataset.n_objects
        assert metrics["n_sources"] == dataset.n_sources
        assert metrics["ingested_claims"] == dataset.n_observations()
        assert metrics["read_objects"] == dataset.n_objects
        assert metrics["windows_sealed"] >= 1
        assert metrics["cache_hit_rate"] == 1.0


class TestServiceSurface:
    def test_as_claim_accepts_tuples_and_records(self):
        claim = as_claim(("o1", "temp", "a", 2.0, 3.0))
        assert claim == Claim("o1", "temp", "a", 2.0, 3.0)
        record = Record(entry=EntryId("o1", "temp"), value=2.0,
                        source_id="a", timestamp=3)
        assert as_claim(record) == Claim("o1", "temp", "a", 2.0, 3)
        assert as_claim(claim) is claim
        with pytest.raises(TypeError):
            as_claim(42)

    def test_claims_need_timestamps(self, mixed_schema):
        service = TruthService(mixed_schema)
        with pytest.raises(ValueError, match="timestamp"):
            service.ingest([Claim("o1", "temp", "a", 2.0, None)])

    @pytest.mark.parametrize("bad", [
        Claim("c", "temp", "s1", 50.0, None),
        Claim("c", "temp", "s1", 50.0, float("nan")),
        Claim("c", "nope", "s1", 50.0, 2.0),
        Claim("c", "temp", "s4", None, 2.0),
        42,
    ], ids=["no-timestamp", "nan-timestamp", "unknown-property",
            "missing-value", "not-a-claim"])
    def test_bad_claim_mid_batch_keeps_the_prefix(self, mixed_schema, bad):
        """An ``ingest`` that raises on a bad claim ends as if the batch
        had stopped just before it: the claims before it are counted,
        resolved and published, and the error still propagates."""
        warm = [Claim("a", "temp", "s1", 70.0, 0.0),
                Claim("a", "temp", "s2", 72.0, 0.0),
                Claim("a", "condition", "s1", "sunny", 0.0)]
        prefix = [Claim("a", "temp", "s3", 71.0, 0.0),
                  Claim("b", "temp", "s1", 60.0, 1.0),
                  Claim("b", "temp", "s2", 61.0, 1.0)]
        service = TruthService(mixed_schema, window=1)
        reference = TruthService(mixed_schema, window=1)
        for target in (service, reference):
            target.ingest(warm)
        with pytest.raises((ValueError, TypeError)):
            service.ingest(prefix + [bad])
        reference.ingest(prefix)
        metrics = service.metrics()
        assert metrics["ingested_claims"] == metrics["n_claims"]
        assert metrics["ingested_claims"] == \
            reference.metrics()["ingested_claims"]
        assert metrics["windows_sealed"] == \
            reference.metrics()["windows_sealed"]
        assert_published(service)
        np.testing.assert_array_equal(service.get_weights(),
                                      reference.get_weights())
        assert_tables_equal(service.get_truth(["a", "b"]),
                            reference.get_truth(["a", "b"]))

    @pytest.mark.parametrize("bad", [
        Claim("b", "temp", "s9", "warm", 5.0),
        Claim(["b"], "temp", "s9", 60.0, 5.0),
    ], ids=["bad-value", "unhashable-object"])
    def test_bad_claim_registers_no_ids(self, mixed_schema, bad):
        """A claim whose value does not convert, or whose object id
        cannot be looked up, raises before its source or object is
        registered, so a later good claim for the same object opens
        (and seals) its window as a first claim would."""
        service = TruthService(mixed_schema, window=1)
        service.ingest([Claim("a", "temp", "s1", 70.0, 0.0)])
        with pytest.raises((ValueError, TypeError)):
            service.ingest([bad])
        assert service.object_ids == ("a",)
        assert service.source_ids == ("s1",)
        service.ingest([Claim("b", "temp", "s1", 60.0, 5.0),
                        Claim("c", "temp", "s1", 61.0, 6.0)])
        assert service.metrics()["windows_sealed"] == 2
        assert service.get_truth(["b"]).columns[0][0] == 60.0

    @pytest.mark.parametrize("missing", [None, float("nan")],
                             ids=["none", "nan"])
    @pytest.mark.parametrize("kind", [categorical, continuous, text])
    def test_missing_value_rejected(self, kind, missing):
        """A ``None`` or NaN value is not a claim on any property kind:
        it raises naming the object and property, after the claims
        before it are absorbed, and registers no id or label — so it
        never becomes a vote for some other label."""
        prop = (categorical("condition", ("sunny", "rain", "snow"))
                if kind is categorical else kind("condition"))
        schema = DatasetSchema.of(prop)
        labels = kind is not continuous
        good = "sunny" if labels else 70.0
        service = TruthService(schema, window=1)
        with pytest.raises(ValueError, match=r"'a'.*'condition'"):
            service.ingest([Claim("a", "condition", "s1", good, 0.0),
                            Claim("a", "condition", "s2", missing, 0.0),
                            Claim("a", "condition", "s3", missing, 0.0)])
        assert service.source_ids == ("s1",)
        assert service.metrics()["ingested_claims"] == 1
        if labels:
            assert service.store.codecs()["condition"].labels == ("sunny",)
        service.ingest([Claim("b", "condition", "s1",
                              "rain" if labels else 60.0, 1.0)])
        service.flush()
        truth = service.get_truth(["a"]).columns[0][0]
        assert truth == (0 if labels else 70.0)
        assert service.source_ids == ("s1",)

    def test_late_claim_after_seal_trigger_matches_single_claims(
            self, mixed_schema):
        """One batch is split at the claim that seals a window: the late
        claim (and new source) for the sealing window's object that
        follows the trigger lands after the seal, exactly as in a
        one-claim-per-ingest replay."""
        claims = [Claim("a", "temp", "s1", 70.0, 0.0),
                  Claim("a", "temp", "s2", 72.0, 0.0),
                  Claim("a", "condition", "s1", "sunny", 0.0),
                  Claim("b", "temp", "s1", 60.0, 1.0),  # seals {0}
                  Claim("a", "temp", "s3", 90.0, 0.0),  # late, new source
                  Claim("a", "condition", "s3", "rain", 0.0),
                  Claim("b", "temp", "s3", 65.0, 1.0),
                  Claim("b", "temp", "s2", 61.0, 1.0)]
        batched = TruthService(mixed_schema, window=1)
        single = TruthService(mixed_schema, window=1)
        report = batched.ingest(claims)
        for claim in claims:
            single.ingest([claim])
        assert report.windows_sealed == 1
        for service in (batched, single):
            assert service.model.source_ids == ("s1", "s2")
        assert_tables_equal(batched.get_truth(["a", "b"]),
                            single.get_truth(["a", "b"]))
        batched.flush()
        single.flush()
        np.testing.assert_array_equal(batched.model.weight_history,
                                      single.model.weight_history)
        np.testing.assert_array_equal(batched.get_weights(),
                                      single.get_weights())
        assert_tables_equal(batched.get_truth(["a", "b"]),
                            single.get_truth(["a", "b"]))

    @pytest.mark.parametrize("loss", ["zero_one", "probability"])
    def test_categorical_property_without_claims(self, loss):
        """A codec-backed property with no codec seed and no claim yet
        resolves to missing; sealing and later ingests still work."""
        schema = DatasetSchema.of(continuous("temp"), categorical("cond"))
        service = TruthService(schema, window=1,
                               config=ICRHConfig(categorical_loss=loss))
        report = service.ingest([Claim("a", "temp", "s1", 70.0, 0.0),
                                 Claim("b", "temp", "s1", 70.0, 1.0)])
        assert report.windows_sealed == 1
        report = service.ingest([Claim("c", "temp", "s1", 71.0, 2.0)])
        assert report.windows_sealed == 1
        table = service.get_truth(["a", "b", "c"])
        assert table.columns[0].tolist() == [70.0, 70.0, 71.0]
        assert table.columns[1].tolist() == [MISSING_CODE] * 3

    def test_unknown_object_read_raises(self, mixed_schema):
        service = TruthService(mixed_schema)
        with pytest.raises(KeyError):
            service.get_truth(["never-seen"])

    def test_empty_ingest_and_empty_read(self, mixed_schema):
        service = TruthService(mixed_schema)
        report = service.ingest([])
        assert report.ingested_claims == 0
        table = service.get_truth([])
        assert len(table.object_ids) == 0

    def test_invalid_window(self, mixed_schema):
        with pytest.raises(ValueError, match="window"):
            TruthService(mixed_schema, window=0)


def assert_tables_equal(actual, expected):
    assert list(actual.object_ids) == list(expected.object_ids)
    for got, want in zip(actual.columns, expected.columns):
        np.testing.assert_array_equal(got, want)


def same_row(row, view, position) -> bool:
    """Whether ``row`` equals ``view``'s row ``position`` (NaN == NaN)."""
    return position < view.n_objects and all(
        (value == view.columns[m][position])
        or (isinstance(value, float) and np.isnan(value)
            and np.isnan(view.columns[m][position]))
        for m, value in enumerate(row)
    )


@pytest.mark.concurrency
class TestConcurrentStress:
    """The single-writer / many-reader contract of :class:`TruthService`:
    one thread calls ``ingest`` while readers call ``get_truth``.

    Runs untraced here and under a registry tracer in
    :class:`TestConcurrentStressTraced`, where lock-free readers also
    emit into the shared registry."""

    @staticmethod
    def make_tracer():
        return None

    def service_for(self, dataset) -> TruthService:
        return TruthService(dataset.schema, window=2,
                            codecs=dataset.codecs(),
                            tracer=self.make_tracer())

    def test_barrier_started_writers_and_readers(self):
        """A writer ingests the stream in slices while barrier-started
        readers hammer ``get_truth``; afterwards the state matches the
        sequential replay of the same claims."""
        dataset = weather(23, n_cities=6, n_days=10)
        claims = list(iter_dataset_claims(dataset))
        service = self.service_for(dataset)
        step = max(1, len(claims) // 8)
        barrier = threading.Barrier(1 + 3)
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            barrier.wait()
            try:
                for start in range(0, len(claims), step):
                    service.ingest(claims[start:start + step])
            except BaseException as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader():
            barrier.wait()
            rng = np.random.default_rng(threading.get_ident() % 2**31)
            try:
                while not stop.is_set():
                    known = service.object_ids
                    if not known:
                        continue
                    pick = [known[int(i)] for i in
                            rng.integers(0, len(known), size=3)]
                    try:
                        service.get_truth(pick)
                    except KeyError:
                        pass  # not yet in the published snapshot: allowed
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        service.flush()
        reference = replay(dataset, window=2, batch=step)
        np.testing.assert_array_equal(service.get_weights(),
                                      reference.get_weights())
        assert service.source_ids == reference.source_ids
        assert service.object_ids == reference.object_ids
        ids = list(reference.object_ids)
        assert_tables_equal(service.get_truth(ids), reference.get_truth(ids))
        assert (service.metrics()["windows_sealed"]
                == reference.metrics()["windows_sealed"])

    def test_no_torn_reads_deterministic_interleaving(self, monkeypatch):
        """Every ``get_truth`` row matches the same row of *some*
        snapshot the service ever published — values from two
        different publications can never mix inside one object row.

        The oracle sees every publication: ``_publish`` is wrapped to
        record its snapshot under the history lock, atomically with the
        publication itself, so a reader holding that lock finds each
        snapshot it could have read either in the history or as the
        service's current view.
        """
        dataset = weather(29, n_cities=5, n_days=8)
        claims = list(iter_dataset_claims(dataset))
        service = self.service_for(dataset)
        view = service.snapshot_view()
        published = {view.seq: view}
        history_lock = threading.Lock()
        publish = service._publish

        def recording_publish():
            with history_lock:
                publish()
                view = service.snapshot_view()
                published[view.seq] = view

        monkeypatch.setattr(service, "_publish", recording_publish)

        barrier = threading.Barrier(2)
        stop = threading.Event()
        torn: list[str] = []

        def writer():
            barrier.wait()
            try:
                for start in range(0, len(claims), 17):
                    service.ingest(claims[start:start + 17])
                service.flush()
            finally:
                stop.set()

        def reader():
            barrier.wait()
            rng = np.random.default_rng(12345)
            while not stop.is_set():
                known = service.object_ids
                if not known:
                    continue
                object_id = known[int(rng.integers(0, len(known)))]
                try:
                    table = service.get_truth([object_id])
                except KeyError:
                    continue
                position = service.store.object_position(object_id)
                row = [column[0] for column in table.columns]
                with history_lock:
                    views = list(published.values())
                    views.append(service.snapshot_view())
                if not any(same_row(row, view, position)
                           for view in views):  # pragma: no cover
                    torn.append(f"{object_id}: {row}")

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(published) > 2
        assert torn == []

    def test_published_snapshots_are_immutable(self):
        """A published snapshot keeps its exact values while a writer
        thread rewrites every cached row in place and readers call
        ``get_truth`` (copy-on-write contract)."""
        dataset = weather(31)
        claims = list(iter_dataset_claims(dataset))
        service = self.service_for(dataset)
        service.ingest(claims)
        service.flush()
        early = service.snapshot_view()
        frozen = [column.copy() for column in early.columns]
        ids = list(service.object_ids)
        # Late outliers from three new sources: every object turns
        # dirty and is re-resolved into the existing cache rows (no
        # object is new, so no buffer growth hides an in-place write).
        firsts = {}
        for claim in claims:
            if claim.property_name == "high_temp":
                firsts.setdefault(claim.object_id, claim)
        late = [Claim(c.object_id, "high_temp", f"late{k}",
                      c.value + 100.0, c.timestamp)
                for c in firsts.values() for k in range(3)]
        stop = threading.Event()
        changed: list[int] = []

        def writer():
            try:
                for start in range(0, len(late), 12):
                    service.ingest(late[start:start + 12])
            finally:
                stop.set()

        def reader():
            while not stop.is_set():
                service.get_truth(ids)
                for m, (live, saved) in enumerate(
                        zip(early.columns, frozen)):
                    if not np.array_equal(live, saved, equal_nan=True):
                        changed.append(m)  # pragma: no cover

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert changed == []
        latest = service.snapshot_view()
        assert latest.seq > early.seq
        assert not np.array_equal(latest.columns[0], frozen[0])
        for live, saved in zip(early.columns, frozen):
            np.testing.assert_array_equal(live, saved)
        with pytest.raises(ValueError):
            early.columns[0][...] = 0  # read-only


class TestConcurrentStressTraced(TestConcurrentStress):
    """:class:`TestConcurrentStress` with a :class:`MetricsRegistry`
    tracer: the same oracles hold while every call emits."""

    make_tracer = staticmethod(MetricsRegistry)
