"""The int64 overflow guard on every path that reduces in NumPy.

``np.abs(-2**63)`` is ``-2**63``, so a guard built on ``np.abs`` sees a
negative peak and lets through a batch whose sum wraps.  Each path must
fall back to exact Python ints instead and agree with the centralized
scan.
"""

from __future__ import annotations

import pytest

from repro.cube import Attribute, Schema, UniformHierarchy
from repro.cube.batches import RecordBatch
from repro.local.sortscan import evaluate_centralized
from repro.local.vectorized import evaluate_vectorized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.query.builder import WorkflowBuilder

RECORDS = [(0, -(2**63)), (0, -1), (1, 5)]


def _schema():
    k = UniformHierarchy("k", {"value": 1}, base_cardinality=2)
    return Schema([Attribute("k", k)], facts=["v"])


@pytest.fixture(scope="module")
def workflow():
    builder = WorkflowBuilder(_schema())
    builder.basic("total", over={"k": "value"}, field="v", aggregate="sum")
    return builder.build()


def _simulated(early):
    def run(workflow, records):
        return ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=2)),
            ExecutionConfig(early_aggregation=early),
        ).evaluate(workflow, records).result

    return run


def _multiprocess(workflow, records):
    result, _report = MultiprocessEvaluator(processes=2).evaluate(
        workflow, records
    )
    return result


PATHS = {
    "vectorized": evaluate_vectorized,
    "simulated": _simulated(early=False),
    "simulated-early": _simulated(early=True),
    "multiprocess": _multiprocess,
}


def test_batch_with_the_most_negative_int64_is_not_reduction_safe():
    batch = RecordBatch.from_records(_schema(), RECORDS)
    assert batch.matrix is not None
    assert not batch.reduction_safe()


@pytest.mark.parametrize("copies", [1, 30])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_most_negative_int64_sums_exactly(workflow, path, copies):
    records = RECORDS * copies
    expected = evaluate_centralized(workflow, records)
    assert expected["total"][(0,)] == copies * (-(2**63) - 1)
    assert PATHS[path](workflow, records) == expected
