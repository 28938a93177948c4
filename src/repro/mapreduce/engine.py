"""In-process MapReduce engine with faithful dataflow semantics.

:class:`LocalCluster` executes a :class:`~repro.mapreduce.job.MapReduceJob`
the way Hadoop would, minus the machines:

1. the input is split into ``n_mappers`` contiguous splits;
2. each map task applies the mapper to its records and, if a combiner is
   configured, groups its own output by key and combines it (shrinking
   the shuffle exactly as Section 2.7.3 describes);
3. the shuffle hash-partitions intermediate pairs across ``n_reducers``
   partitions and sorts each partition by key ("they will be sorted by
   Hadoop");
4. each reduce task walks its sorted partition group by group and applies
   the reducer.

Every stage records volume statistics into a
:class:`~repro.mapreduce.job.JobStats` so the cluster cost model can
price the run in simulated cluster seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Hashable, Sequence

from ..observability import mapreduce_job_record
from ..observability.tracer import Tracer
from .cost import ClusterCostModel, SimulatedClock
from .job import JobStats, MapReduceJob
from .partitioner import hash_partition


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
    """Emit one ``mapreduce_job`` trace record if tracing is enabled."""
    if tracer is None or not tracer.enabled:
        return
    tracer.emit(mapreduce_job_record(
        stats.job_name,
        map_tasks=n_mappers,
        reduce_tasks=n_reducers,
        map_input_records=stats.map_input_records,
        map_output_records=stats.map_output_records,
        shuffled_records=stats.shuffled_records,
        reduce_output_records=stats.reduce_output_records,
        combiner_savings=stats.combiner_savings,
        simulated_seconds=simulated_seconds,
    ))


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
class JobResult:
    """Output pairs plus execution statistics of one job."""

    output: list[tuple[Hashable, object]]
    stats: JobStats
    simulated_seconds: float


def _split(records: Sequence, n_splits: int) -> list[Sequence]:
    """Contiguous near-equal input splits (empty splits allowed)."""
    total = len(records)
    base, extra = divmod(total, n_splits)
    splits = []
    start = 0
    for i in range(n_splits):
        size = base + (1 if i < extra else 0)
        splits.append(records[start:start + size])
        start += size
    return splits


def _combine(job: MapReduceJob,
             pairs: list[tuple[Hashable, object]]) -> list[tuple]:
    """Group one map task's output by key and run the combiner."""
    pairs.sort(key=itemgetter(0))
    combined: list[tuple[Hashable, object]] = []
    for key, group in groupby(pairs, key=itemgetter(0)):
        values = [value for _, value in group]
        combined.extend(job.combiner(key, values))
    return combined


class LocalCluster:
    """Executes MapReduce jobs in-process with cluster-shaped dataflow.

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

    def run(self, job: MapReduceJob,
            records: Sequence[tuple[Hashable, object]]) -> JobResult:
        """Run one job over ``(key, value)`` input records."""
        config = self.config
        stats = JobStats(job_name=job.name)
        stats.map_input_records = len(records)

        # --- map (+ combine) ------------------------------------------
        partitions: list[list[tuple[Hashable, object]]] = [
            [] for _ in range(config.n_reducers)
        ]
        for split in _split(records, config.n_mappers):
            task_output: list[tuple[Hashable, object]] = []
            for key, value in split:
                task_output.extend(job.mapper(key, value))
            stats.map_output_per_task.append(len(task_output))
            if job.combiner is not None:
                task_output = _combine(job, task_output)
            stats.shuffle_out_per_task.append(len(task_output))
            for key, value in task_output:
                partitions[hash_partition(key, config.n_reducers)].append(
                    (key, value)
                )

        # --- shuffle sort + reduce -------------------------------------
        output: list[tuple[Hashable, object]] = []
        stats.shuffle_in_per_reducer = [len(p) for p in partitions]
        for partition in partitions:
            # Hadoop guarantees reducers see keys in sorted order; sort on
            # the repr for heterogeneous keys, which is stable per run.
            partition.sort(key=lambda kv: repr(kv[0]))
            for key, group in groupby(partition, key=itemgetter(0)):
                values = [value for _, value in group]
                output.extend(job.reducer(key, values))
        stats.reduce_output_records = len(output)

        simulated = self.clock.charge(
            stats, config.n_mappers, config.n_reducers
        )
        self.counters.charge(stats, config.n_mappers, config.n_reducers)
        emit_job_record(self.tracer, stats, config.n_mappers,
                        config.n_reducers, simulated)
        return JobResult(output=output, stats=stats,
                         simulated_seconds=simulated)
