"""Columnar MapReduce engine (Section 2.7's execution platform).

:class:`VectorCluster` executes a :class:`VectorJob` the way Hadoop
would, minus the machines:

1. the input is split into ``n_mappers`` contiguous splits;
2. each map task applies the mapper to its split and, if a combiner is
   configured, groups its own output by key and combines it (shrinking
   the shuffle exactly as Section 2.7.3 describes);
3. the shuffle hash-partitions intermediate records across
   ``n_reducers`` partitions and sorts each partition by key ("they will
   be sorted by Hadoop");
4. each reduce task receives its sorted partition grouped by key.

Records move as *columnar batches*: a task receives its whole split as
parallel numpy arrays and returns keyed arrays, so a map task is an
ordinary map task whose user code is vectorized.  Every stage records
volume statistics into a :class:`~repro.mapreduce.cost.JobStats` so the
cluster cost model can price the run in simulated cluster seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..observability import record
from ..observability.tracer import Tracer
from .cost import ClusterCostModel, JobStats, SimulatedClock
from .partitioner import array_partition


@dataclass(frozen=True)
class ClusterConfig:
    """Degree of parallelism and cost model of the simulated cluster.

    Tasks run one after another in task order, so results are fully
    deterministic; the cluster shape only changes how work is split and
    what the cost model charges.
    """

    n_mappers: int = 4
    n_reducers: int = 4
    cost_model: ClusterCostModel = field(default_factory=ClusterCostModel)

    def __post_init__(self) -> None:
        if self.n_mappers < 1 or self.n_reducers < 1:
            raise ValueError("need at least one mapper and one reducer")


@dataclass
class EngineCounters:
    """Cumulative per-cluster execution counters (always collected).

    These are a handful of integer adds per *job*, so they stay on even
    without a tracer; traced runs additionally emit one
    ``mapreduce_job`` record per job with the per-job breakdown.
    """

    jobs_run: int = 0
    map_invocations: int = 0
    reduce_invocations: int = 0
    records_shuffled: int = 0

    def charge(self, stats: JobStats, n_mappers: int,
               n_reducers: int) -> None:
        """Accumulate one finished job's volumes."""
        self.jobs_run += 1
        self.map_invocations += n_mappers
        self.reduce_invocations += n_reducers
        self.records_shuffled += stats.shuffled_records

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for ``run_end`` records)."""
        return {
            "jobs_run": self.jobs_run,
            "map_invocations": self.map_invocations,
            "reduce_invocations": self.reduce_invocations,
            "shuffled_records": self.records_shuffled,
        }


def emit_job_record(tracer: Tracer | None, stats: JobStats,
                    n_mappers: int, n_reducers: int,
                    simulated_seconds: float) -> None:
    """Emit one ``mapreduce_job`` trace record when traced."""
    if tracer is None:
        return
    tracer.emit(record(
        "mapreduce_job",
        job=stats.job_name,
        map_tasks=n_mappers,
        reduce_tasks=n_reducers,
        map_input_records=stats.map_input_records,
        map_output_records=stats.map_output_records,
        shuffled_records=stats.shuffled_records,
        reduce_output_records=stats.reduce_output_records,
        combiner_savings=stats.combiner_savings,
        simulated_seconds=simulated_seconds,
    ))


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
    """Columnar MapReduce executor priced by the cluster cost model.

    Pass a :class:`~repro.observability.Tracer` to receive one
    ``mapreduce_job`` record per executed job; :attr:`counters` always
    accumulates cumulative task/shuffle totals across jobs.
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
