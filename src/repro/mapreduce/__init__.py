"""Simulated MapReduce substrate: DFS, cluster, timing, accounting,
and the pair engine."""

from repro.mapreduce.cluster import SimulatedCluster, makespan
from repro.mapreduce.counters import JobCounters, JobReport, PhaseBreakdown
from repro.mapreduce.dfs import (
    Block,
    DataUnavailableError,
    DistributedFile,
    InMemoryDFS,
)
from repro.mapreduce.engine import (
    JobResult,
    JobShape,
    MapReduceJob,
    TaskContext,
    account,
    default_partitioner,
)
from repro.mapreduce.sorter import (
    SortStats,
    external_sort,
    group_sorted,
    sort_group_pairs,
    spill_stats,
)
from repro.mapreduce.timing import MB, ClusterConfig, TimingModel
from repro.mapreduce.trace import (
    TaskSpan,
    render_gantt,
    schedule,
    slot_utilization,
)

__all__ = [
    "Block",
    "ClusterConfig",
    "DataUnavailableError",
    "DistributedFile",
    "InMemoryDFS",
    "JobCounters",
    "JobReport",
    "JobResult",
    "JobShape",
    "MB",
    "MapReduceJob",
    "PhaseBreakdown",
    "SimulatedCluster",
    "SortStats",
    "TaskSpan",
    "TaskContext",
    "TimingModel",
    "account",
    "default_partitioner",
    "external_sort",
    "group_sorted",
    "makespan",
    "render_gantt",
    "schedule",
    "slot_utilization",
    "sort_group_pairs",
    "spill_stats",
]
