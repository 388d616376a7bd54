"""The simulated engine's columnar shuffle at its edges.

Map tasks over an int matrix ship block row arrays; every other task
ships ``(key, record)`` pairs.  Whichever a bucket holds, the answer
must equal :func:`evaluate_centralized`, and the virtual clock, the
counters and the per-reducer times must equal a run in which no map
task routes columnar at all.
"""

from __future__ import annotations

import pytest

from repro.cube.batches import RecordBatch
from repro.faults import FaultPlan
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import Block, DistributedFile, InMemoryDFS
from repro.mapreduce.engine import BlockRows, ShuffleBucket
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
    """Which entry kinds each reduce task's bucket held."""
    kinds = []
    original = ShuffleBucket.columnar

    def spy(self):
        kinds.append(
            frozenset(
                "rows" if isinstance(entry, BlockRows) else "pairs"
                for entry in self.entries
            )
        )
        return original(self)

    monkeypatch.setattr(ShuffleBucket, "columnar", spy)
    return kinds


def test_typed_task_and_int_tasks_meet_in_one_bucket(
    monkeypatch, workflow, tiny_records, bucket_kinds
):
    # 12 DFS blocks of 50; the third holds float facts, so its map task
    # builds a typed batch and ships pairs beside the others' arrays.
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
    assert outcome.columnar.batch_tasks == 12
    assert frozenset({"rows", "pairs"}) in bucket_kinds


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
    assert frozenset({"rows"}) in bucket_kinds
    assert frozenset({"rows", "pairs"}) not in bucket_kinds


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
