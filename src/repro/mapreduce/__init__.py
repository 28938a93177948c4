"""In-process MapReduce substrate (Section 2.7's execution platform).

:class:`VectorCluster` runs columnar map/combine/shuffle/reduce jobs —
the engine parallel CRH and the Table 6 / Fig. 7-8 scaling sweeps run
on.  The :class:`ClusterCostModel` converts each job's volume
statistics into *simulated cluster seconds* (see its docstring for the
calibration argument), and :class:`SideFileStore` plays the role of the
shared HDFS files the paper keeps weights and truths in between jobs.
"""

from .cost import ClusterCostModel, JobStats, SimulatedClock
from .fs import SideFileStore
from .partitioner import array_partition
from .vector import (
    ClusterConfig,
    EngineCounters,
    GroupedArrays,
    KeyedArrays,
    VectorCluster,
    VectorJob,
    VectorJobResult,
    group_by_key,
)

__all__ = [
    "ClusterConfig",
    "ClusterCostModel",
    "EngineCounters",
    "GroupedArrays",
    "JobStats",
    "KeyedArrays",
    "SideFileStore",
    "SimulatedClock",
    "VectorCluster",
    "VectorJob",
    "VectorJobResult",
    "array_partition",
    "group_by_key",
]
