"""On int data the product never runs the dict composite operators.

The reducers of both backends evaluate composites on arrays
(:mod:`repro.local.columnar`); ``compute_composite``, ``rollup`` and
``sibling_window`` remain the oracle and the per-measure fallback.  Here
they raise, and Q1-Q6 and DS0-DS2 must still equal
:func:`~repro.local.sortscan.evaluate_centralized` -- through
``ParallelEvaluator`` and through the process backend's worker task,
run in this process as ``tests/parallel/test_worker_buckets.py`` does.
A measure that does take the fallback is counted on the
``block-composites`` span.
"""

from __future__ import annotations

import pytest

from repro.cube.batches import RecordBatch
from repro.local import vectorized
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.obs import Tracer
from repro.optimizer.optimizer import Optimizer
from repro.parallel import multiprocess as mp
from repro.parallel.executor import ParallelEvaluator, union_outputs
from repro.parallel.shm import SegmentRegistry, leaked_segments, shm_available
from repro.query.builder import WorkflowBuilder
from repro.query.functions import expression
from repro.workload import (
    all_queries,
    generate_skewed,
    generate_uniform,
    paper_schema,
)
from repro.workload.queries import ds_query

from tests.helpers import refuse_dict_operators, typed

PARTITIONS = 4

SCHEMA = paper_schema(days=3, temporal_base="minute")
DATASETS = {
    "uniform": generate_uniform(SCHEMA, 600, seed=17),
    "skewed": generate_skewed(SCHEMA, 600, seed=17, skew_fraction=0.25),
}
QUERIES = {
    **all_queries(SCHEMA),
    **{f"DS{fineness}": ds_query(SCHEMA, fineness) for fineness in range(3)},
}


def worker_result(workflow, records, expressions=None):
    """Every shm task of one evaluation through ``_run_task`` here;
    *expressions* names the workflow's user expressions."""
    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    plan = Optimizer().plan_query(
        workflow, len(records), num_reducers=PARTITIONS
    )
    batch = RecordBatch.from_records(workflow.schema, records)
    registry = SegmentRegistry()
    saved = dict(mp._WORKER)
    try:
        buckets, *_rest = mp._scatter_buckets(
            plan, records, batch, PARTITIONS, registry
        )
        install = mp._install_payload(workflow, plan, expressions, ())
        rows = []
        for task, bucket in enumerate(buckets):
            _task, got = mp._run_task(
                task, 0, bucket, None, install=install,
                scope=("test", None),
            )
            rows.extend(got)
    finally:
        mp._WORKER.clear()
        mp._WORKER.update(saved)
        registry.unlink_all()
    assert leaked_segments(registry.prefix) == []
    return union_outputs(workflow, rows)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("name", sorted(QUERIES))
class TestNoDictOperators:
    def test_simulated_cluster(self, monkeypatch, name, dataset):
        workflow, records = QUERIES[name], DATASETS[dataset]
        oracle = evaluate_centralized(workflow, records)
        refuse_dict_operators(monkeypatch)
        outcome = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4))
        ).evaluate(workflow, records)
        assert typed(outcome.result) == typed(oracle)

    def test_worker_tasks(self, monkeypatch, name, dataset):
        workflow, records = QUERIES[name], DATASETS[dataset]
        oracle = evaluate_centralized(workflow, records)
        refuse_dict_operators(monkeypatch)
        assert typed(worker_result(workflow, records)) == typed(oracle)


def _halve(value):
    """Even values halve to an int, odd ones to a float."""
    return value // 2 if value % 2 == 0 else value / 2


HALVE = expression(_halve, 1, "halve")


@pytest.fixture
def mixed_workflow(tiny_schema):
    """Two measures that must fall back, beside two that need not.

    ``mean_span`` rolls up float values and ``halves`` calls a user
    expression per row: both stay columnar.  ``middle`` rolls up with a
    holistic aggregate and ``halves_span`` rolls up ``halves``' mixed
    int/float column: both fall back.
    """
    builder = WorkflowBuilder(tiny_schema)
    builder.basic(
        "base", over={"x": "value", "t": "tick"}, field="v", aggregate="sum"
    )
    builder.basic(
        "mean", over={"x": "value", "t": "tick"}, field="v", aggregate="avg"
    )
    (
        builder.composite("mean_span", over={"x": "four", "t": "span"})
        .from_children("mean", aggregate="sum")
    )
    (
        builder.composite("middle", over={"x": "four", "t": "span"})
        .from_children("base", aggregate="median")
    )
    (
        builder.composite("halves", over={"x": "value", "t": "tick"})
        .from_self("base")
        .combine(HALVE)
    )
    (
        builder.composite("halves_span", over={"x": "four", "t": "span"})
        .from_children("halves", aggregate="sum")
    )
    return builder.build()


@pytest.fixture
def one_record_per_region():
    """Records with distinct (x, t) pairs: every ``mean`` value is an
    exact small float, so float roll-ups cannot depend on fold order."""
    return [
        (x, t, 1 + (3 * x + 5 * t) % 11)
        for x in range(16)
        for t in range(32)
        if (x + t) % 3
    ]


class TestFallbacks:
    EXPECTED = {"middle", "halves_span"}

    def count_fallbacks(self, monkeypatch) -> list:
        taken = []
        original = vectorized.compute_composite

        def counting(measure, *args, **kwargs):
            taken.append(measure.name)
            return original(measure, *args, **kwargs)

        monkeypatch.setattr(vectorized, "compute_composite", counting)
        return taken

    def test_simulated_cluster(
        self, monkeypatch, mixed_workflow, one_record_per_region
    ):
        records = one_record_per_region
        oracle = evaluate_centralized(mixed_workflow, records)
        taken = self.count_fallbacks(monkeypatch)
        tracer = Tracer()
        outcome = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4)), tracer=tracer
        ).evaluate(mixed_workflow, records)
        assert typed(outcome.result) == typed(oracle)
        # One span per (reduce task, component); ``mean`` and
        # ``mean_span`` form their own component, which takes none.
        counts = [
            span.attributes.get("fallbacks", 0)
            for span in tracer.find("block-composites")
        ]
        assert set(counts) == {0, len(self.EXPECTED)}
        assert sum(counts) == len(taken)
        assert set(taken) == self.EXPECTED
        assert len(taken) == len(self.EXPECTED) * taken.count("middle")

    def test_worker_tasks(
        self, monkeypatch, mixed_workflow, one_record_per_region
    ):
        records = one_record_per_region
        oracle = evaluate_centralized(mixed_workflow, records)
        taken = self.count_fallbacks(monkeypatch)
        result = worker_result(
            mixed_workflow, records, {"halve": HALVE}
        )
        assert typed(result) == typed(oracle)
        assert set(taken) == self.EXPECTED
        assert len(taken) == len(self.EXPECTED) * taken.count("middle")

    def test_int_data_takes_none(self, tiny_schema, tiny_workflow,
                                 tiny_records):
        tracer = Tracer()
        ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4)), tracer=tracer
        ).evaluate(tiny_workflow, tiny_records)
        spans = tracer.find("block-composites")
        assert spans
        assert all("fallbacks" not in span.attributes for span in spans)
