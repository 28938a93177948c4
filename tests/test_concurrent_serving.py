"""Race/linearizability harness for the sharded concurrent router.

The load-bearing guarantees fuzzed here:

* **sequential equivalence** — a drained ``ShardedTruthService`` (any
  shard count, any policy, sync or threaded ingest) is bit-identical
  to a single unsharded ``TruthService`` fed the same claims: same
  weights, same truths, same sealed-window count;
* **shard-count invariance** — hypothesis fuzz over shard counts
  (1, 2, 7) and window sizes;
* **no torn reads** — barrier-started readers hammering lock-free
  ``read_truth`` during concurrent ingest only ever observe value
  rows that exactly match *some* published snapshot of the owning
  shard (copy-on-write isolation);
* **backpressure** — queue-full blocks or rejects atomically, drains
  on close, and worker faults surface as ``IngestWorkerError``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import WeatherConfig, generate_weather_dataset
from repro.observability import MemoryTracer
from repro.streaming import (
    SHARD_POLICIES,
    BackpressureError,
    IngestWorkerError,
    ShardedTruthService,
    TruthService,
    iter_dataset_claims,
    shard_policy_by_name,
)

pytestmark = pytest.mark.concurrency


def weather(seed: int, n_cities: int = 4, n_days: int = 8):
    return generate_weather_dataset(
        WeatherConfig(n_cities=n_cities, n_days=n_days, seed=seed)
    ).dataset


def replay_unsharded(dataset, window=2, batch=64) -> TruthService:
    service = TruthService(dataset.schema, window=window,
                           codecs=dataset.codecs())
    claims = list(iter_dataset_claims(dataset))
    for start in range(0, len(claims), batch):
        service.ingest(claims[start:start + batch])
    service.flush()
    return service


def replay_sharded(dataset, *, n_shards, window=2, batch=64,
                   **kwargs) -> ShardedTruthService:
    service = ShardedTruthService(dataset.schema, n_shards=n_shards,
                                  window=window, codecs=dataset.codecs(),
                                  **kwargs)
    claims = list(iter_dataset_claims(dataset))
    for start in range(0, len(claims), batch):
        service.ingest(claims[start:start + batch])
    service.flush()
    service.drain()
    return service


def assert_tables_equal(actual, expected):
    assert list(actual.object_ids) == list(expected.object_ids)
    for got, want in zip(actual.columns, expected.columns):
        np.testing.assert_array_equal(got, want)


def assert_equivalent(sharded: ShardedTruthService,
                      reference: TruthService):
    """The bit-identity oracle: weights, truths, window counts."""
    np.testing.assert_array_equal(sharded.get_weights(),
                                  reference.get_weights())
    assert sharded.source_ids == reference.source_ids
    assert sharded.object_ids == reference.object_ids
    ids = list(reference.object_ids)
    assert_tables_equal(sharded.get_truth(ids), reference.get_truth(ids))
    assert_tables_equal(sharded.read_truth(ids), reference.get_truth(ids))
    assert (sharded.metrics()["windows_sealed"]
            == reference.metrics()["windows_sealed"])


class TestShardPolicies:
    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            shard_policy_by_name("zipf")
        message = str(excinfo.value)
        assert "zipf" in message
        for name in SHARD_POLICIES:
            assert name in message

    def test_unknown_policy_at_construction(self):
        dataset = weather(0)
        with pytest.raises(ValueError, match="valid policies"):
            ShardedTruthService(dataset.schema, n_shards=2,
                                policy="round-robin")

    def test_policies_are_stable_across_instances(self):
        # hash must not depend on interpreter hash salting
        for name, policy in SHARD_POLICIES.items():
            a = [policy(f"obj{i}", i, 5) for i in range(40)]
            b = [policy(f"obj{i}", i, 5) for i in range(40)]
            assert a == b, name

    def test_invalid_construction_args(self):
        dataset = weather(0)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedTruthService(dataset.schema, n_shards=0)
        with pytest.raises(ValueError, match="ingest_threads"):
            ShardedTruthService(dataset.schema, ingest_threads=-1)
        with pytest.raises(ValueError, match="backpressure"):
            ShardedTruthService(dataset.schema, backpressure="drop")


class TestSequentialEquivalence:
    @pytest.mark.parametrize("policy", sorted(SHARD_POLICIES))
    def test_sync_sharded_matches_unsharded(self, policy):
        dataset = weather(11)
        reference = replay_unsharded(dataset)
        sharded = replay_sharded(dataset, n_shards=3, policy=policy)
        assert_equivalent(sharded, reference)
        sharded.close()

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_drained_threaded_matches_unsharded(self, threads):
        dataset = weather(13)
        reference = replay_unsharded(dataset)
        with replay_sharded(dataset, n_shards=4,
                            ingest_threads=threads) as sharded:
            assert_equivalent(sharded, reference)

    def test_threaded_matches_sync_sharded(self):
        dataset = weather(17)
        sync = replay_sharded(dataset, n_shards=3)
        with replay_sharded(dataset, n_shards=3,
                            ingest_threads=3) as threaded:
            ids = list(dataset.object_ids)
            assert_tables_equal(threaded.get_truth(ids),
                                sync.get_truth(ids))
            np.testing.assert_array_equal(threaded.get_weights(),
                                          sync.get_weights())
        sync.close()

    def test_small_batches_interleave_seals_identically(self):
        dataset = weather(19)
        reference = replay_unsharded(dataset, batch=7)
        sharded = replay_sharded(dataset, n_shards=5, batch=7,
                                 ingest_threads=2)
        assert_equivalent(sharded, reference)
        sharded.close()

    def test_trace_records_stamp_topology(self, tmp_path):
        dataset = weather(2)
        tracer = MemoryTracer()
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs(),
                                      tracer=tracer)
        service.ingest(list(iter_dataset_claims(dataset))[:40])
        service.get_truth([dataset.object_ids[0]])
        service.close()
        events = {record["event"] for record in tracer.records}
        assert {"ingest", "read"} <= events
        for record in tracer.records:
            assert record["n_shards"] == 2
            assert record["ingest_mode"] == "sync"


@given(n_shards=st.sampled_from([1, 2, 7]),
       window=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_shard_count_invariance_fuzz(n_shards, window, seed):
    """Hypothesis oracle: results are invariant to shard count and
    equal to an unsharded service — the drained-concurrent-vs-
    sequential bit-identity acceptance gate."""
    dataset = weather(seed, n_cities=3, n_days=6)
    reference = replay_unsharded(dataset, window=window, batch=32)
    sharded = replay_sharded(dataset, n_shards=n_shards, window=window,
                             batch=32)
    assert_equivalent(sharded, reference)
    sharded.close()


@pytest.mark.slow
@given(n_shards=st.sampled_from([1, 2, 7]),
       threads=st.sampled_from([1, 3]),
       batch=st.sampled_from([5, 23, 64]),
       seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=10, deadline=None)
def test_threaded_shard_count_invariance_fuzz(n_shards, threads, batch,
                                              seed):
    """The heaviest fuzz: async ingest across shard counts and batch
    sizes still drains to the sequential oracle, bit for bit."""
    dataset = weather(seed, n_cities=3, n_days=6)
    reference = replay_unsharded(dataset, batch=batch)
    sharded = replay_sharded(dataset, n_shards=n_shards, batch=batch,
                             ingest_threads=threads)
    assert_equivalent(sharded, reference)
    sharded.close()


class TestConcurrentStress:
    def test_barrier_started_writers_and_readers(self):
        """Writers ingest disjoint claim slices while readers hammer
        both read paths; afterwards the drained state matches the
        sequential replay of the same claims."""
        dataset = weather(23, n_cities=6, n_days=10)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=4,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=2)
        n_writer_turns = 8
        barrier = threading.Barrier(1 + 3)
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            barrier.wait()
            try:
                step = max(1, len(claims) // n_writer_turns)
                for start in range(0, len(claims), step):
                    service.ingest(claims[start:start + step])
            except BaseException as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader():
            barrier.wait()
            rng = np.random.default_rng(threading.get_ident() % 2**31)
            while not stop.is_set():
                known = service.object_ids
                if not known:
                    continue
                pick = [known[int(i)] for i in
                        rng.integers(0, len(known), size=3)]
                try:
                    service.read_truth(pick)
                except KeyError:
                    pass  # not yet in the published snapshot: allowed
                try:
                    service.get_truth(pick)
                except KeyError:  # pragma: no cover - id set raced
                    pass

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        service.flush()
        service.drain()
        reference = replay_unsharded(dataset, batch=max(
            1, len(claims) // n_writer_turns))
        assert_equivalent(service, reference)
        service.close()

    def test_no_torn_reads_deterministic_interleaving(self, monkeypatch):
        """Every ``read_truth`` row matches the same row of *some*
        snapshot the owning shard ever published — values from two
        different publications can never mix inside one object row.

        The oracle sees every publication, including those the async
        ingest workers make between two writer calls: each shard's
        ``_publish`` is wrapped to record its snapshot under the
        history lock, atomically with the publication itself, so a
        reader holding that lock sees each snapshot it could have read
        either in the history or as the shard's current view.
        """
        dataset = weather(29, n_cities=5, n_days=8)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=3,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=2)
        published: list[dict] = [dict() for _ in range(3)]
        history_lock = threading.Lock()

        def recording(shard_index, shard):
            publish = shard._publish

            def wrapper():
                with history_lock:
                    publish()
                    view = shard.snapshot_view()
                    published[shard_index][view.seq] = view
            return wrapper

        for shard_index, shard in enumerate(service.shards):
            view = shard.snapshot_view()
            published[shard_index][view.seq] = view
            monkeypatch.setattr(shard, "_publish",
                                recording(shard_index, shard))

        barrier = threading.Barrier(2)
        stop = threading.Event()
        torn: list[str] = []

        def writer():
            barrier.wait()
            for start in range(0, len(claims), 17):
                service.ingest(claims[start:start + 17])
            service.flush()
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
                    table = service.read_truth([object_id])
                except KeyError:
                    continue
                shard_index = service.shard_of(object_id)
                shard = service.shards[shard_index]
                local = shard.store.object_position(object_id)
                row = [column[0] for column in table.columns]
                with history_lock:
                    views = list(published[shard_index].values())
                    views.append(shard.snapshot_view())
                ok = any(
                    local < view.n_objects and all(
                        (value == view.columns[m][local])
                        or (isinstance(value, float)
                            and np.isnan(value)
                            and np.isnan(view.columns[m][local]))
                        for m, value in enumerate(row)
                    )
                    for view in views
                )
                if not ok:  # pragma: no cover - the failure being hunted
                    torn.append(f"{object_id}: {row}")

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.drain()
        service.close()
        assert torn == []

    def test_published_snapshots_are_immutable(self):
        """A snapshot captured early keeps its exact values after many
        more ingests/seals (copy-on-write contract)."""
        dataset = weather(31)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs())
        service.ingest(claims[:120])
        early = [shard.snapshot_view() for shard in service.shards]
        frozen = [[column.copy() for column in view.columns]
                  for view in early]
        service.ingest(claims[120:])
        service.flush()
        for view, columns in zip(early, frozen):
            for live, saved in zip(view.columns, columns):
                np.testing.assert_array_equal(live, saved)
            with pytest.raises(ValueError):
                view.columns[0][...] = 0  # read-only
        service.close()

    def test_snapshot_restore_under_concurrent_load(self, tmp_path):
        """Persisting while writers/readers run yields a consistent
        cut that replays to the sequential oracle."""
        dataset = weather(37, n_cities=5, n_days=10)
        claims = list(iter_dataset_claims(dataset))
        half = len(claims) // 2
        service = ShardedTruthService(dataset.schema, n_shards=3,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=2)
        barrier = threading.Barrier(2)
        stop = threading.Event()

        def reader():
            barrier.wait()
            rng = np.random.default_rng(7)
            while not stop.is_set():
                known = service.object_ids
                if known:
                    try:
                        service.read_truth(
                            [known[int(rng.integers(0, len(known)))]])
                    except KeyError:
                        pass

        thread = threading.Thread(target=reader)
        thread.start()
        barrier.wait()
        for start in range(0, half, 13):
            service.ingest(claims[start:start + 13])
        service.snapshot(tmp_path / "mid")
        stop.set()
        thread.join(timeout=30)
        service.close()

        restored = ShardedTruthService.restore(tmp_path / "mid",
                                               ingest_threads=2)
        consumed = ((half + 12) // 13) * 13  # full batches ingested
        consumed = min(consumed, half)
        for start in range(consumed, len(claims), 13):
            restored.ingest(claims[start:start + 13])
        restored.flush()
        restored.drain()
        reference = replay_unsharded(dataset, batch=13)
        assert_equivalent(restored, reference)
        restored.close()


class TestBackpressure:
    def test_reject_mode_rejects_whole_batch_atomically(self):
        dataset = weather(41)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=1, queue_size=1,
                                      backpressure="reject")
        rejected = 0
        accepted = 0
        for start in range(0, len(claims), 8):
            batch = claims[start:start + 8]
            try:
                accepted += service.ingest(batch).ingested_claims
            except BackpressureError:
                rejected += len(batch)
                service.drain()  # then the same batch must go through
                accepted += service.ingest(batch).ingested_claims
        service.flush()
        service.drain()
        metrics = service.metrics()
        assert rejected > 0, "queue_size=1 never filled"
        assert metrics["rejected_claims"] == rejected
        # no partial ingest: every claim landed exactly once
        assert metrics["submitted_claims"] == len(claims)
        assert metrics["ingested_claims"] == len(claims)
        service.close()

    def test_block_mode_never_drops(self):
        dataset = weather(43)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=1, queue_size=1,
                                      backpressure="block")
        for start in range(0, len(claims), 16):
            service.ingest(claims[start:start + 16])
        service.flush()
        service.drain()
        assert service.metrics()["rejected_claims"] == 0
        assert service.metrics()["ingested_claims"] == len(claims)
        service.close()

    def test_close_drains_queued_work(self):
        dataset = weather(47)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=2)
        service.ingest(claims)
        service.close()  # must drain, not drop
        assert service.metrics()["ingested_claims"] == len(claims)
        with pytest.raises(RuntimeError, match="closed"):
            service.ingest(claims[:1])

    def test_worker_exception_propagates_and_service_survives(self):
        dataset = weather(53)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=1)
        original = service.shards[0].absorb
        calls = {"n": 0}

        def faulty(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected shard fault")
            return original(batch)

        service.shards[0].absorb = faulty
        service.ingest(claims[:60])
        with pytest.raises(IngestWorkerError, match="injected"):
            service.drain()
        # the worker kept draining: the service still shuts down
        service._errors.clear()
        service.close()

    def test_queue_depth_gauge_reports_backlog(self):
        dataset = weather(59)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs(),
                                      ingest_threads=2)
        service.ingest(claims)
        service.drain()
        assert service.metrics()["queue_depth"] == 0
        service.close()


class TestMetricsAndObservability:
    def test_merged_registry_labels_shards(self):
        dataset = weather(61)
        service = replay_sharded(dataset, n_shards=2)
        merged = service.merged_registry()
        snapshot = merged.snapshot()
        labels = {tuple(sorted(entry["labels"].items()))
                  for entry in snapshot["counters"]}
        assert (("shard", "0"),) in labels
        assert (("shard", "1"),) in labels
        assert () in labels  # router's own counters stay unlabeled
        text = merged.to_prometheus()
        assert 'shard="0"' in text
        assert "lock_wait_seconds" in text
        service.close()

    def test_registry_view_is_live(self):
        dataset = weather(67)
        claims = list(iter_dataset_claims(dataset))
        service = ShardedTruthService(dataset.schema, n_shards=2,
                                      window=2, codecs=dataset.codecs())
        view = service.registry_view()
        before = sum(entry["value"]
                     for entry in view.snapshot()["counters"]
                     if entry["name"] == "ingested_claims")
        service.ingest(claims[:50])
        after = sum(entry["value"]
                    for entry in view.snapshot()["counters"]
                    if entry["name"] == "ingested_claims")
        assert before == 0 and after == 50
        service.close()

    def test_metrics_keys_cover_serving_surface(self):
        dataset = weather(71)
        service = replay_sharded(dataset, n_shards=3, ingest_threads=2)
        metrics = service.metrics()
        assert metrics["n_shards"] == 3
        assert metrics["ingest_mode"] == "threads"
        assert metrics["shard_imbalance"] >= 1.0
        assert metrics["ingested_claims"] == metrics["submitted_claims"]
        service.close()
