"""The simulated path's columnar shuffle at its edges.

An input that forms one routable batch is routed once as arrays, and
each reducer's bucket is block keys plus row indices into that batch;
any other input goes through the per-record router and ships record
lists.  Whichever a bucket holds, the answer must equal
:func:`evaluate_centralized`, and the virtual clock, the counters and
the per-reducer times must equal a run in which nothing routes
columnar at all.
"""

from __future__ import annotations

import pytest

from repro.cube.batches import RecordBatch
from repro.faults import FaultPlan
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import Block, DistributedFile, InMemoryDFS
from repro.parallel import executor
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.query.builder import WorkflowBuilder

MACHINES = 4


@pytest.fixture(params=["tiny", "sliding"])
def workflow(request, tiny_schema, tiny_workflow):
    """The four-relationship workflow, and one whose only feasible keys
    annotate ``t``: its records replicate into neighbouring blocks."""
    if request.param == "tiny":
        return tiny_workflow
    builder = WorkflowBuilder(tiny_schema)
    builder.basic("ticks", over={"t": "tick"}, field="v", aggregate="sum")
    builder.composite("trailing", over={"t": "tick"}).window(
        "ticks", attribute="t", low=-5, high=2, aggregate="max"
    )
    return builder.build()


def _cluster(block_records=4096, fault_plan=None):
    cluster = SimulatedCluster(
        ClusterConfig(machines=MACHINES),
        dfs=InMemoryDFS(MACHINES, block_records=block_records),
    )
    if fault_plan is not None:
        cluster.install_faults(fault_plan)
    return cluster


def assert_same_as_pairs(
    monkeypatch, workflow, data, records, *, cluster=_cluster, **config
):
    """Run columnar and pairs-only; both must agree in every report."""
    columnar = ParallelEvaluator(
        cluster(), ExecutionConfig(**config)
    ).evaluate(workflow, data)
    with monkeypatch.context() as patch:
        patch.setattr(RecordBatch, "routable", lambda self: False)
        pairs = ParallelEvaluator(
            cluster(), ExecutionConfig(**config)
        ).evaluate(workflow, data)
    assert columnar.result == evaluate_centralized(workflow, records)
    assert pairs.result == columnar.result
    assert columnar.response_time == pairs.response_time
    assert columnar.job.breakdown == pairs.job.breakdown
    assert columnar.job.counters == pairs.job.counters
    assert columnar.job.reducer_times == pairs.job.reducer_times
    assert pairs.columnar.batch_tasks == 0
    if records and workflow.names == ("ticks", "trailing"):
        assert columnar.job.counters.replication_factor > 1
    return columnar


@pytest.fixture
def bucket_kinds(monkeypatch):
    """What each reduce task's bucket held: ``matrix`` (rows of an int
    batch), ``typed`` (rows of a typed batch) or ``records`` (lists)."""
    kinds = []
    original = executor.evaluate_bucket

    def spy(evaluators, filters, keys, sizes, rows, outputs, **kwargs):
        if keys:
            if not isinstance(rows, RecordBatch):
                kinds.append("records")
            else:
                kinds.append("matrix" if rows.matrix is not None else "typed")
        return original(
            evaluators, filters, keys, sizes, rows, outputs, **kwargs
        )

    monkeypatch.setattr(executor, "evaluate_bucket", spy)
    return kinds


def test_typed_task_and_int_tasks_meet_in_one_bucket(
    monkeypatch, workflow, tiny_records, bucket_kinds
):
    # 12 DFS blocks of 50; the third holds float facts, so no batch
    # covers the input's fact column: every bucket ships record lists.
    records = [
        (x, t, v + 0.5) if 100 <= index < 150 else (x, t, v)
        for index, (x, t, v) in enumerate(tiny_records)
    ]
    outcome = assert_same_as_pairs(
        monkeypatch,
        workflow,
        records,
        records,
        cluster=lambda: _cluster(block_records=50),
        num_reducers=2,
    )
    assert outcome.columnar.fallback_tasks == 12
    assert set(bucket_kinds) == {"records"}


def test_int_buckets_reduce_columnar(
    monkeypatch, workflow, tiny_records, bucket_kinds
):
    assert_same_as_pairs(
        monkeypatch,
        workflow,
        tiny_records,
        tiny_records,
        cluster=lambda: _cluster(block_records=100),
        num_reducers=3,
    )
    # The columnar run's buckets hold rows of the int batch; the
    # reference run's hold record lists.
    assert set(bucket_kinds) == {"matrix", "records"}


def test_empty_dataset(monkeypatch, workflow):
    outcome = assert_same_as_pairs(monkeypatch, workflow, [], [])
    assert outcome.result.total_rows() == 0
    assert outcome.job.counters.reduce_input_records == 0


def test_map_task_routing_zero_replicas(
    monkeypatch, workflow, tiny_records
):
    first, second = tiny_records[:300], tiny_records[300:]
    data = DistributedFile(
        "with-empty-block",
        (
            Block(0, tuple(first), (0, 1)),
            Block(1, (), (1, 2)),
            Block(2, tuple(second), (2, 3)),
        ),
        MACHINES,
    )
    outcome = assert_same_as_pairs(
        monkeypatch, workflow, data, tiny_records
    )
    assert outcome.job.counters.map_tasks == 3


def test_round_robin_partitioner(monkeypatch, workflow, tiny_records):
    assert_same_as_pairs(
        monkeypatch,
        workflow,
        tiny_records,
        tiny_records,
        cluster=lambda: _cluster(block_records=150),
        partitioner="round_robin",
    )


@pytest.mark.parametrize("seed", range(3))
def test_chaos(monkeypatch, workflow, tiny_records, seed):
    outcome = assert_same_as_pairs(
        monkeypatch,
        workflow,
        tiny_records,
        tiny_records,
        cluster=lambda: _cluster(
            block_records=100, fault_plan=FaultPlan.random(seed, MACHINES)
        ),
    )
    assert outcome.job.faults
