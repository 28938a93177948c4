"""Simulated-cluster cost model for MapReduce jobs.

The engine in this package executes in-process, so wall-clock time says
nothing about cluster behaviour.  This model converts a job's volume
statistics (:class:`JobStats`) into *simulated
cluster seconds*, reproducing the three scaling phenomena of the paper's
Hadoop experiments:

* **setup-dominated small jobs** (Table 6: 1e4 and 1e5 observations take
  nearly the same time) — fixed per-job and per-task setup costs;
* **linear growth in observations/sources** (Fig. 7) — per-record map,
  shuffle and reduce costs;
* **non-monotone reducer count** (Fig. 8: 10 reducers beat both 2 and
  25) — per-reducer work shrinks as ``1/n`` while coordination and task
  startup grow linearly in ``n``.

Calibration: defaults are fitted to the *shape* of the paper's Dell
cluster numbers (Table 6: ~94 s floor, 669 s at 1e8 observations per
full run), not to reproduce them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class JobStats:
    """Volume counters collected while a job executes.

    These feed the :class:`ClusterCostModel`: the simulated cluster
    clock is a function of how many records moved through each stage,
    not of local Python speed.
    """

    job_name: str = ""
    map_input_records: int = 0
    #: map-output records per map task (pre-combiner)
    map_output_per_task: list[int] = field(default_factory=list)
    #: records actually shuffled per map task (post-combiner)
    shuffle_out_per_task: list[int] = field(default_factory=list)
    #: records received per reduce task
    shuffle_in_per_reducer: list[int] = field(default_factory=list)
    reduce_output_records: int = 0

    @property
    def map_output_records(self) -> int:
        return sum(self.map_output_per_task)

    @property
    def shuffled_records(self) -> int:
        return sum(self.shuffle_in_per_reducer)

    @property
    def combiner_savings(self) -> int:
        """Records the combiner removed from the shuffle."""
        return self.map_output_records - sum(self.shuffle_out_per_task)


@dataclass(frozen=True)
class ClusterCostModel:
    """Maps job volume statistics to simulated cluster seconds."""

    #: fixed per-job overhead (JVM start, scheduling, HDFS metadata)
    job_setup_s: float = 4.0
    #: startup cost of each map / reduce task
    task_setup_s: float = 0.4
    #: per-record costs
    map_record_s: float = 1.2e-6
    shuffle_record_s: float = 8.0e-7
    reduce_record_s: float = 1.0e-6
    #: per-reducer coordination overhead (master heartbeat, partitioning)
    reducer_coordination_s: float = 0.02

    def __post_init__(self) -> None:
        for field_name in (
            "job_setup_s", "task_setup_s", "map_record_s",
            "shuffle_record_s", "reduce_record_s", "reducer_coordination_s",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def job_time(self, stats: JobStats, n_mappers: int,
                 n_reducers: int) -> float:
        """Simulated makespan of one job in cluster seconds.

        Map tasks run in parallel (makespan = slowest task); the shuffle
        is network-bound on the aggregate volume; reduce tasks run in
        parallel but each started reducer costs setup + coordination.
        """
        if n_mappers < 1 or n_reducers < 1:
            raise ValueError("need at least one mapper and one reducer")
        per_map_records = stats.map_input_records / n_mappers
        map_phase = self.task_setup_s + per_map_records * self.map_record_s
        slowest_reducer = (
            max(stats.shuffle_in_per_reducer)
            if stats.shuffle_in_per_reducer else 0
        )
        # Each reducer pulls its partition over its own link, so the
        # shuffle is bound by the most-loaded reducer, not the aggregate.
        shuffle_phase = slowest_reducer * self.shuffle_record_s
        reduce_phase = (
            self.task_setup_s
            + slowest_reducer * self.reduce_record_s
            + n_reducers * self.reducer_coordination_s
        )
        return self.job_setup_s + map_phase + shuffle_phase + reduce_phase


@dataclass
class SimulatedClock:
    """Accumulates simulated cluster seconds across a multi-job run."""

    model: ClusterCostModel
    elapsed_s: float = 0.0

    def charge(self, stats: JobStats, n_mappers: int,
               n_reducers: int) -> float:
        """Add one job's simulated time; returns that job's time."""
        t = self.model.job_time(stats, n_mappers, n_reducers)
        self.elapsed_s += t
        return t
