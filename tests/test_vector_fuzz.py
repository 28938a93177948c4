"""Property-based fuzzing of the vectorized MapReduce engine.

Randomized batches and cluster shapes must all produce the same grouped
reductions as a direct numpy ground truth — the engine is only allowed
to change *where* work runs, never *what* comes out.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    ClusterConfig,
    KeyedArrays,
    VectorCluster,
    VectorJob,
    group_by_key,
)


@st.composite
def random_batches(draw):
    n = draw(st.integers(min_value=0, max_value=400))
    key_space = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return KeyedArrays(
        keys=rng.integers(0, key_space, n),
        values={"v": rng.normal(0, 3, n)},
    )


def _sum_job() -> VectorJob:
    def reducer(grouped):
        return KeyedArrays(keys=grouped.group_keys,
                           values={"v": grouped.segment_sum("v")})
    return VectorJob(name="sum", mapper=lambda s: s, reducer=reducer,
                     combiner=reducer)


def _as_dict(output: KeyedArrays) -> dict[int, float]:
    if len(output) == 0:
        return {}   # empty concatenate carries no value columns
    return dict(zip(output.keys.tolist(), output.values["v"].tolist()))


@given(random_batches(),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=50)
def test_segment_sums_match_bincount(batch, n_mappers, n_reducers):
    cluster = VectorCluster(ClusterConfig(
        n_mappers=n_mappers, n_reducers=n_reducers,
    ))
    result = cluster.run(_sum_job(), batch)
    got = _as_dict(result.output)
    if len(batch) == 0:
        assert got == {}
        return
    expected = np.bincount(batch.keys, weights=batch.values["v"])
    for key in np.unique(batch.keys):
        assert got[int(key)] == np.float64(expected[key]).item() or \
            abs(got[int(key)] - expected[key]) < 1e-9


@given(random_batches())
@settings(max_examples=50)
def test_group_by_key_invariants(batch):
    if len(batch) == 0:
        return
    grouped = group_by_key(batch)
    # Groups cover every row exactly once, keys strictly increasing.
    assert grouped.segment_count().sum() == len(batch)
    assert (np.diff(grouped.group_keys) > 0).all()
    # Sorted batch keys are non-decreasing and per-group homogeneous.
    assert (np.diff(grouped.sorted.keys) >= 0).all()
    for g in range(grouped.n_groups):
        segment = grouped.sorted.keys[
            grouped.starts[g]:grouped.starts[g + 1]
        ]
        assert (segment == grouped.group_keys[g]).all()


@given(random_batches())
@settings(max_examples=30)
def test_stats_account_for_every_record(batch):
    cluster = VectorCluster(ClusterConfig(n_mappers=3, n_reducers=4))
    result = cluster.run(_sum_job(), batch)
    stats = result.stats
    assert stats.map_input_records == len(batch)
    assert stats.map_output_records == len(batch)
    assert len(stats.map_output_per_task) == 3
    assert len(stats.shuffle_in_per_reducer) == 4
    # The combiner can only shrink the shuffle, never grow it.
    assert stats.shuffled_records <= stats.map_output_records
    # Every distinct key comes out exactly once.
    assert stats.reduce_output_records == np.unique(batch.keys).size


@given(random_batches(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_combiner_never_changes_results(batch, seed):
    job = _sum_job()
    without = VectorJob(name="sum", mapper=job.mapper,
                        reducer=job.reducer)
    a = _as_dict(VectorCluster().run(job, batch).output)
    b = _as_dict(VectorCluster().run(without, batch).output)
    assert set(a) == set(b)
    for key in a:
        assert abs(a[key] - b[key]) < 1e-9
