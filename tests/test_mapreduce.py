"""Tests for the MapReduce substrate: the vector engine (record-level
word counts and columnar sums), side files, partitioners and the cluster
cost model."""

import numpy as np
import pytest

from repro.mapreduce import (
    ClusterConfig,
    ClusterCostModel,
    JobStats,
    KeyedArrays,
    SideFileStore,
    VectorCluster,
    VectorJob,
    array_partition,
    group_by_key,
)


def word_count_job(combiner: bool = True) -> VectorJob:
    """Word count on the vector engine: one input row per line, whose
    ``words`` column holds the line's word ids padded with -1."""
    def mapper(lines: KeyedArrays) -> KeyedArrays:
        words = lines.values["words"].ravel()
        words = words[words >= 0]
        return KeyedArrays(keys=words,
                           values={"count": np.ones_like(words)})

    def reducer(grouped) -> KeyedArrays:
        return KeyedArrays(keys=grouped.group_keys,
                           values={"count": grouped.segment_sum("count")})

    return VectorJob(name="word-count", mapper=mapper, reducer=reducer,
                     combiner=reducer if combiner else None)


def run_word_count(cluster: VectorCluster, lines: list[str],
                   combiner: bool = True):
    """Run :func:`word_count_job` over text lines; return the counts by
    word and the job result."""
    vocab: dict[str, int] = {}
    width = max((len(line.split()) for line in lines), default=0)
    words = np.full((len(lines), width), -1, dtype=np.int64)
    for row, line in enumerate(lines):
        for col, word in enumerate(line.split()):
            words[row, col] = vocab.setdefault(word, len(vocab))
    records = KeyedArrays(keys=np.arange(len(lines)),
                          values={"words": words})
    result = cluster.run(word_count_job(combiner), records)
    names = {i: w for w, i in vocab.items()}
    counts = {names[k]: int(c) for k, c in zip(
        result.output.keys.tolist(),
        result.output.values.get("count", np.empty(0)).tolist())}
    return counts, result


class TestRecordEngine:
    """Word counts record by record: integer counts compare exactly."""

    def test_combiner_shrinks_shuffle(self):
        lines = ["x x x x"] * 8
        config = ClusterConfig(n_mappers=2, n_reducers=2)
        with_counts, with_combiner = run_word_count(VectorCluster(config),
                                                    lines)
        without_counts, without = run_word_count(VectorCluster(config),
                                                 lines, combiner=False)
        assert with_combiner.stats.shuffled_records < \
            without.stats.shuffled_records
        assert with_counts == without_counts == {"x": 32}

    def test_stats_volumes(self):
        cluster = VectorCluster(ClusterConfig(n_mappers=2, n_reducers=3))
        counts, result = run_word_count(cluster, ["a b", "c"])
        stats = result.stats
        assert counts == {"a": 1, "b": 1, "c": 1}
        assert stats.map_input_records == 2
        assert stats.map_output_records == 3
        assert len(stats.map_output_per_task) == 2
        assert len(stats.shuffle_in_per_reducer) == 3
        assert stats.reduce_output_records == 3

    def test_result_independent_of_parallelism(self):
        lines = [f"w{i % 5} w{i % 3}" for i in range(50)]
        outputs = []
        for n_mappers, n_reducers in ((1, 1), (4, 2), (7, 5)):
            cluster = VectorCluster(
                ClusterConfig(n_mappers=n_mappers, n_reducers=n_reducers)
            )
            counts, _ = run_word_count(cluster, lines)
            outputs.append(counts)
        assert outputs[0] == outputs[1] == outputs[2]
        assert sum(outputs[0].values()) == 100


class TestPartitioners:
    def test_array_partition(self):
        keys = np.arange(20, dtype=np.int64)
        parts = array_partition(keys, 4)
        np.testing.assert_array_equal(parts, keys % 4)

    def test_array_partition_type_check(self):
        with pytest.raises(TypeError):
            array_partition(np.array([1.5]), 2)
        with pytest.raises(ValueError):
            array_partition(np.array([1]), 0)


class TestSideFileStore:
    def test_write_read_copies(self):
        store = SideFileStore()
        data = np.array([1.0, 2.0])
        store.write("weights", data)
        data[0] = 99.0
        np.testing.assert_array_equal(store.read("weights"), [1.0, 2.0])
        read = store.read("weights")
        read[0] = -1.0
        np.testing.assert_array_equal(store.read("weights"), [1.0, 2.0])

    def test_versions(self):
        store = SideFileStore()
        assert store.version("f") == 0
        assert store.write("f", np.zeros(1)) == 1
        assert store.write("f", np.ones(1)) == 2
        assert store.version("f") == 2

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            SideFileStore().read("nope")

    def test_listing_and_delete(self):
        store = SideFileStore()
        store.write("b", np.zeros(1))
        store.write("a", np.zeros(1))
        assert list(store) == ["a", "b"]
        assert len(store) == 2
        store.delete("a")
        assert not store.exists("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SideFileStore().write("", np.zeros(1))

    def test_disk_backed_roundtrip(self, tmp_path):
        store = SideFileStore(directory=tmp_path / "side")
        store.write("weights", np.array([0.5, 1.5]))
        np.testing.assert_array_equal(store.read("weights"), [0.5, 1.5])
        assert (tmp_path / "side" / "weights.npy").exists()
        assert store.exists("weights")
        assert list(store) == ["weights"]
        store.delete("weights")
        assert not store.exists("weights")
        with pytest.raises(FileNotFoundError):
            store.read("weights")

    def test_disk_store_shared_between_instances(self, tmp_path):
        """Two stores on the same directory see each other's writes —
        the cross-process semantics the paper's external file implies."""
        writer = SideFileStore(directory=tmp_path / "shared")
        reader = SideFileStore(directory=tmp_path / "shared")
        writer.write("truths", np.arange(4.0))
        np.testing.assert_array_equal(reader.read("truths"),
                                      np.arange(4.0))

    def test_parallel_crh_with_disk_store(self, tmp_path):
        """The parallel driver works unchanged on a disk-backed store."""
        from repro.parallel import crh_mapreduce
        from repro.parallel import ParallelCRHConfig, parallel_crh
        from tests.conftest import make_synthetic
        dataset, _ = make_synthetic(n_objects=30, seed=4)
        original = crh_mapreduce.SideFileStore
        try:
            crh_mapreduce.SideFileStore = (
                lambda: original(directory=tmp_path / "run")
            )
            result = parallel_crh(dataset,
                                  ParallelCRHConfig(max_iterations=3,
                                                    tol=0.0))
        finally:
            crh_mapreduce.SideFileStore = original
        assert (tmp_path / "run" / "weights.npy").exists()
        assert np.isfinite(result.weights).all()


class TestVectorEngine:
    def _sum_records(self, n=1000, seed=0):
        rng = np.random.default_rng(seed)
        return KeyedArrays(
            keys=rng.integers(0, 50, n),
            values={"v": rng.normal(0, 1, n)},
        )

    def _sum_job(self):
        def reducer(grouped):
            return KeyedArrays(keys=grouped.group_keys,
                               values={"v": grouped.segment_sum("v")})
        return VectorJob(name="sum", mapper=lambda s: s, reducer=reducer,
                         combiner=reducer)

    def test_segment_sum_matches_bincount(self):
        records = self._sum_records()
        result = VectorCluster().run(self._sum_job(), records)
        expected = np.bincount(records.keys, weights=records.values["v"],
                               minlength=50)
        got = np.zeros(50)
        got[result.output.keys] = result.output.values["v"]
        np.testing.assert_allclose(got, expected)

    def test_combiner_equivalence(self):
        records = self._sum_records(seed=1)
        job = self._sum_job()
        no_combiner = VectorJob(name="sum", mapper=job.mapper,
                                reducer=job.reducer)
        with_result = VectorCluster().run(job, records)
        without_result = VectorCluster().run(no_combiner, records)
        a = dict(zip(with_result.output.keys.tolist(),
                     with_result.output.values["v"].tolist()))
        b = dict(zip(without_result.output.keys.tolist(),
                     without_result.output.values["v"].tolist()))
        assert set(a) == set(b)
        for key in a:
            assert a[key] == pytest.approx(b[key])
        assert with_result.stats.shuffled_records < \
            without_result.stats.shuffled_records
        assert with_result.stats.combiner_savings > 0
        assert without_result.stats.combiner_savings == 0

    def test_group_by_key(self):
        batch = KeyedArrays(
            keys=np.array([3, 1, 3, 2, 1]),
            values={"v": np.arange(5.0)},
        )
        grouped = group_by_key(batch)
        np.testing.assert_array_equal(grouped.group_keys, [1, 2, 3])
        np.testing.assert_array_equal(grouped.segment_count(), [2, 1, 2])
        np.testing.assert_allclose(grouped.segment_sum("v"),
                                   [1 + 4, 3, 0 + 2])

    def test_keyed_arrays_validation(self):
        with pytest.raises(ValueError, match="rows"):
            KeyedArrays(keys=np.array([1, 2]),
                        values={"v": np.array([1.0])})

    def test_simulated_clock_accumulates(self):
        cluster = VectorCluster()
        records = self._sum_records(n=10)
        first = cluster.run(self._sum_job(), records)
        second = cluster.run(self._sum_job(), records)
        assert cluster.clock.elapsed_s == pytest.approx(
            first.simulated_seconds + second.simulated_seconds
        )

    def test_empty_input(self):
        config = ClusterConfig(n_mappers=3, n_reducers=4)
        empty = KeyedArrays(keys=np.empty(0, dtype=np.int64),
                            values={"v": np.empty(0)})
        result = VectorCluster(config).run(self._sum_job(), empty)
        assert len(result.output) == 0
        assert result.stats.map_output_per_task == [0, 0, 0]
        assert result.stats.shuffle_in_per_reducer == [0] * 4

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_mappers=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_reducers=0)

    def test_concatenate_empty(self):
        empty = KeyedArrays.concatenate([])
        assert len(empty) == 0

    def test_result_independent_of_parallelism(self):
        records = self._sum_records(seed=2)
        job = self._sum_job()
        reference = None
        for n_mappers, n_reducers in ((1, 1), (3, 4), (8, 2)):
            cluster = VectorCluster(ClusterConfig(n_mappers=n_mappers,
                                                  n_reducers=n_reducers))
            result = cluster.run(job, records)
            as_dict = dict(zip(result.output.keys.tolist(),
                               result.output.values["v"].tolist()))
            if reference is None:
                reference = as_dict
            else:
                assert set(as_dict) == set(reference)
                for key in as_dict:
                    assert as_dict[key] == pytest.approx(reference[key])


class TestCostModel:
    def _stats(self, records=100_000, n_reducers=4):
        per_reducer = records // n_reducers
        return JobStats(
            job_name="j",
            map_input_records=records,
            map_output_per_task=[records],
            shuffle_out_per_task=[records],
            shuffle_in_per_reducer=[per_reducer] * n_reducers,
            reduce_output_records=records,
        )

    def test_setup_floor(self):
        model = ClusterCostModel()
        tiny = self._stats(records=10)
        assert model.job_time(tiny, 4, 4) >= model.job_setup_s

    def test_monotone_in_records(self):
        model = ClusterCostModel()
        small = model.job_time(self._stats(10_000), 4, 4)
        large = model.job_time(self._stats(10_000_000), 4, 4)
        assert large > small

    def test_reducer_sweet_spot(self):
        """Fig. 8's mechanism: per-reducer work shrinks, coordination
        grows; the simulated time is non-monotone in reducer count."""
        model = ClusterCostModel()
        times = {
            n: model.job_time(self._stats(50_000_000, n), 4, n)
            for n in (1, 2, 5, 10, 20, 50, 200)
        }
        best = min(times, key=times.get)
        assert times[1] > times[best]
        assert times[200] > times[best]
        assert 2 <= best <= 50

    def test_more_mappers_faster_map(self):
        model = ClusterCostModel()
        stats = self._stats(10_000_000)
        assert model.job_time(stats, 16, 4) < model.job_time(stats, 2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterCostModel(job_setup_s=-1.0)
        with pytest.raises(ValueError):
            ClusterCostModel().job_time(self._stats(), 0, 4)
