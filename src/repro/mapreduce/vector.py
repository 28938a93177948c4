"""Vectorized MapReduce engine for large-scale sweeps.

The record-level :class:`~repro.mapreduce.engine.LocalCluster` executes
one Python call per record — faithful, but hopeless at the 10^7-record
scales of Table 6.  This engine keeps the same dataflow (splits ->
map -> combine -> hash-partition -> sort -> grouped reduce -> stats) but
moves data as *columnar batches*: a task receives its whole split as
parallel numpy arrays and returns keyed arrays.  The per-task and
per-record accounting is identical, so the cluster cost model prices both
engines the same way.

Semantically a vector map task is an ordinary map task whose user code is
vectorized; grouping and sorting happen between tasks exactly where the
shuffle would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..observability.tracer import Tracer
from .cost import SimulatedClock
from .engine import ClusterConfig, EngineCounters, emit_job_record
from .job import JobStats
from .partitioner import array_partition


@dataclass
class KeyedArrays:
    """A batch of key/value records as parallel columns.

    ``keys`` is an int64 array; ``values`` maps column names to arrays of
    the same length.  This is the vector engine's record format.
    """

    keys: np.ndarray
    values: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.int64)
        for name, column in self.values.items():
            column = np.asarray(column)
            if column.shape[0] != self.keys.shape[0]:
                raise ValueError(
                    f"column {name!r} has {column.shape[0]} rows for "
                    f"{self.keys.shape[0]} keys"
                )
            self.values[name] = column

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def take(self, indices: np.ndarray) -> "KeyedArrays":
        """Row subset by index array, as a new batch."""
        return KeyedArrays(
            keys=self.keys[indices],
            values={n: c[indices] for n, c in self.values.items()},
        )

    def slice(self, start: int, stop: int) -> "KeyedArrays":
        """Contiguous row range [start, stop) as a new batch."""
        return KeyedArrays(
            keys=self.keys[start:stop],
            values={n: c[start:stop] for n, c in self.values.items()},
        )

    @staticmethod
    def concatenate(batches: list["KeyedArrays"]) -> "KeyedArrays":
        non_empty = [b for b in batches if len(b)]
        if not non_empty:
            return KeyedArrays(keys=np.empty(0, dtype=np.int64), values={})
        names = non_empty[0].values.keys()
        return KeyedArrays(
            keys=np.concatenate([b.keys for b in non_empty]),
            values={
                n: np.concatenate([b.values[n] for b in non_empty])
                for n in names
            },
        )


@dataclass
class GroupedArrays:
    """A reduce task's input: records sorted by key and grouped.

    Group ``g`` covers sorted rows ``starts[g]:starts[g + 1]`` and has key
    ``group_keys[g]``.
    """

    group_keys: np.ndarray
    starts: np.ndarray
    sorted: KeyedArrays

    @property
    def n_groups(self) -> int:
        return int(self.group_keys.shape[0])

    def segment_sum(self, column: str) -> np.ndarray:
        """Sum a value column within each group (the workhorse reduction)."""
        sums = np.add.reduceat(self.sorted.values[column], self.starts[:-1])
        return sums if self.n_groups else np.empty(0)

    def segment_count(self) -> np.ndarray:
        """Number of rows in each group."""
        return np.diff(self.starts)


def group_by_key(batch: KeyedArrays) -> GroupedArrays:
    """Sort a batch by key and compute group boundaries."""
    order = np.argsort(batch.keys, kind="stable")
    sorted_batch = batch.take(order)
    group_keys, first = np.unique(sorted_batch.keys, return_index=True)
    starts = np.concatenate([first, [len(sorted_batch)]]).astype(np.int64)
    return GroupedArrays(group_keys=group_keys, starts=starts,
                         sorted=sorted_batch)


VectorMapFn = Callable[[KeyedArrays], KeyedArrays]
VectorReduceFn = Callable[[GroupedArrays], KeyedArrays]


@dataclass(frozen=True)
class VectorJob:
    """A MapReduce job whose tasks operate on columnar batches."""

    name: str
    mapper: VectorMapFn
    reducer: VectorReduceFn
    combiner: VectorReduceFn | None = None


@dataclass
class VectorJobResult:
    output: KeyedArrays
    stats: JobStats
    simulated_seconds: float


class VectorCluster:
    """Columnar MapReduce executor sharing the cluster cost model.

    Like :class:`~repro.mapreduce.engine.LocalCluster`, accepts an
    optional :class:`~repro.observability.Tracer` (one ``mapreduce_job``
    record per job) and accumulates :attr:`counters` across jobs.
    """

    def __init__(self, config: ClusterConfig | None = None,
                 tracer: Tracer | None = None) -> None:
        self.config = config or ClusterConfig()
        self.clock = SimulatedClock(model=self.config.cost_model)
        self.tracer = tracer
        self.counters = EngineCounters()

    def run(self, job: VectorJob, records: KeyedArrays) -> VectorJobResult:
        """Execute one vector job over a columnar record batch."""
        config = self.config
        stats = JobStats(job_name=job.name)
        stats.map_input_records = len(records)

        # --- map (+ combine) per split ---------------------------------
        bounds = np.linspace(
            0, len(records), config.n_mappers + 1
        ).astype(np.int64)

        shuffled: list[KeyedArrays] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mapped = job.mapper(records.slice(int(lo), int(hi)))
            stats.map_output_per_task.append(len(mapped))
            if job.combiner is not None and len(mapped):
                mapped = job.combiner(group_by_key(mapped))
            stats.shuffle_out_per_task.append(len(mapped))
            shuffled.append(mapped)
        intermediate = KeyedArrays.concatenate(shuffled)

        # --- shuffle: hash partition + per-partition sorted reduce ------
        if len(intermediate):
            partitions = array_partition(intermediate.keys,
                                         config.n_reducers)
            parts = [
                intermediate.take(np.flatnonzero(partitions == r))
                for r in range(config.n_reducers)
            ]
            stats.shuffle_in_per_reducer = [len(p) for p in parts]
            outputs = [job.reducer(group_by_key(part))
                       for part in parts if len(part)]
        else:
            stats.shuffle_in_per_reducer = [0] * config.n_reducers
            outputs = []
        output = KeyedArrays.concatenate(outputs)
        stats.reduce_output_records = len(output)

        simulated = self.clock.charge(
            stats, config.n_mappers, config.n_reducers
        )
        self.counters.charge(stats, config.n_mappers, config.n_reducers)
        emit_job_record(self.tracer, stats, config.n_mappers,
                        config.n_reducers, simulated)
        return VectorJobResult(output=output, stats=stats,
                               simulated_seconds=simulated)
