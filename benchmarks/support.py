"""Shared plumbing for the Figure 4 reproduction benchmarks.

Scale substitution: the paper ran 10^8..2*10^9 records on 100 physical
machines; we run 10^4..10^5 records through the same code paths on the
simulated cluster.  All reported times are *simulated cluster seconds*
from the virtual clock -- deterministic, independent of host load -- so
each figure's shape (linearity, crossovers, who wins) is directly
comparable with the paper even though absolute values differ.
"""

from __future__ import annotations

from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.parallel import ExecutionConfig, ParallelEvaluator
from repro.workload import generate_uniform, paper_schema

#: Dataset sizes for the scale-up sweep (records).
SCALEUP_SIZES = (15_000, 30_000, 45_000, 60_000)

#: Machine counts for the speed-up sweep.
SPEEDUP_MACHINES = (10, 25, 50, 100)

#: Days in the synthetic temporal domain (per the paper).
DAYS = 20


def bench_schema():
    """The Section VI schema, with minutes as the temporal base."""
    return paper_schema(days=DAYS, temporal_base="minute")


def make_cluster(machines: int = 50) -> SimulatedCluster:
    """Bench cluster with small DFS blocks.

    The paper's datasets give every map slot many input splits; at our
    scaled-down record counts the default 4096-record blocks would leave
    most slots idle (a constant map phase).  256-record blocks restore
    the many-splits-per-slot regime the paper measures in.
    """
    from repro.mapreduce import InMemoryDFS

    config = ClusterConfig(machines=machines)
    dfs = InMemoryDFS(
        machines=machines, block_records=256, replication=config.replication
    )
    return SimulatedCluster(config, dfs=dfs)


def run_query(
    workflow,
    records,
    machines: int = 50,
    cluster: SimulatedCluster | None = None,
    config: ExecutionConfig | None = None,
    plan=None,
):
    """One parallel evaluation; returns the ParallelResult."""
    if cluster is None:
        cluster = make_cluster(machines)
    evaluator = ParallelEvaluator(cluster, config)
    return evaluator.evaluate(workflow, records, plan=plan)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print one figure's series the way the paper tabulates it."""
    widths = [
        max(len(str(headers[i])), *(len(_fmt(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def dataset(size: int, seed: int = 42):
    return generate_uniform(bench_schema(), size, seed=seed)
