"""One lifted evaluation per worker bucket (Section III-D on the process
backend), checked against the per-block loop it replaced.

The worker functions run in the test process on the path a pool worker
runs: ``_run_task`` installs the plan's lifted evaluators from the
task's install payload and evaluates one scattered bucket, and
:func:`tests.helpers.per_block_task_rows` -- the loop, kept as the
oracle -- must return the same rows for every task, under both
transports.  End to end, real worker processes must still reproduce the
centralized answer and scatter exactly as before.
"""

from __future__ import annotations

import logging
import math
import random

import pytest

from repro.cube.batches import RecordBatch
from repro.cube.domains import UniformHierarchy
from repro.cube.records import Attribute, Schema
from repro.distribution.clustering import BlockScheme
from repro.distribution.keys import DistributionKey
from repro.local.sortscan import evaluate_centralized
from repro.local.vectorized import vectorized_supports
from repro.optimizer.optimizer import Optimizer, Plan, QueryPlan
from repro.parallel import multiprocess as mp
from repro.parallel.executor import union_outputs
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    leaked_segments,
    shm_available,
)
from repro.query.builder import WorkflowBuilder
from repro.query.workflow import connected_components
from repro.workload import (
    all_queries,
    generate_sessions,
    generate_skewed,
    generate_uniform,
    paper_schema,
    weblog_query,
    weblog_schema,
)
from repro.workload.streaming import (
    session_stream,
    streaming_query,
    streaming_schema,
)

from tests.helpers import (
    assert_results_match,
    chunk_rows,
    count_block_evaluations,
    per_block_task_rows,
)

#: Gather tasks per scatter: what ``MultiprocessEvaluator(processes=2)``
#: chooses, one bucket per worker.
PARTITIONS = 2

#: Scatter transports; ``shm`` needs a routable batch.
TRANSPORTS = ["shm", "records"]


# -- cases -----------------------------------------------------------------


def _paper(name, generator):
    def build(_tiny_schema):
        schema = paper_schema(days=3, temporal_base="minute")
        if generator == "uniform":
            records = generate_uniform(schema, 300, seed=7)
        else:
            records = generate_skewed(
                schema, 300, seed=7, skew_fraction=0.25
            )
        return all_queries(schema)[name], records

    return build


def _streaming(_tiny_schema):
    schema = streaming_schema(days=1)
    records = [
        record for batch in session_stream(schema, 3, 100, seed=5)
        for record in batch
    ]
    return streaming_query(schema), records


def _weblog(_tiny_schema):
    """Holistic aggregates, computed on arrays."""
    schema = weblog_schema(days=1)
    return weblog_query(schema), generate_sessions(schema, 300, seed=5)


def _variance(tiny_schema):
    """An aggregate with no array form: the product ships record lists."""
    builder = WorkflowBuilder(tiny_schema)
    builder.basic(
        "spread", over={"x": "value", "t": "span"}, field="v",
        aggregate="variance",
    )
    return builder.build(), _tiny_records()


def _tiny_records(value=lambda i: 1 + i % 9):
    return [((7 * i) % 16, (11 * i) % 32, value(i)) for i in range(300)]


def _pure_align(tiny_schema):
    """A composite with only a parent/child edge: anchored on records."""
    builder = WorkflowBuilder(tiny_schema)
    builder.basic("coarse", over={"t": "span"}, field="v", aggregate="sum")
    builder.composite(
        "spread", over={"x": "value", "t": "tick"}
    ).from_parent("coarse")
    return builder.build(), _tiny_records()


def _sliding_workflow(schema):
    builder = WorkflowBuilder(schema)
    builder.basic(
        "base", over={"x": "value", "t": "tick"}, field="v", aggregate="sum"
    )
    (
        builder.composite("rolled", over={"x": "value", "t": "span"})
        .from_children("base", aggregate="sum")
    )
    (
        builder.composite("trailing", over={"x": "value", "t": "tick"})
        .window("base", attribute="t", low=-3, high=0, aggregate="avg")
    )
    return builder.build()


def _string_dimension(_tiny_schema):
    """``x`` carries names, not int codes: no batch can route it."""
    x = UniformHierarchy("x", {"value": 1}, base_cardinality=3)
    t = UniformHierarchy("t", {"tick": 1, "span": 4}, base_cardinality=32)
    schema = Schema([Attribute("x", x), Attribute("t", t)], facts=["v"])
    rng = random.Random(3)
    records = [
        (
            rng.choice(["east", "north", "west"]),
            rng.randrange(32),
            rng.randrange(1, 10),
        )
        for _ in range(300)
    ]
    return _sliding_workflow(schema), records


def _float_facts(tiny_schema):
    """Float facts: a routable but typed batch, evaluated scalar."""
    return _sliding_workflow(tiny_schema), _tiny_records(
        lambda i: 0.1 * (i % 13) - 0.35
    )


def _huge_values(tiny_schema):
    """Int facts large enough to trip the int64 overflow guard."""
    return _sliding_workflow(tiny_schema), _tiny_records(
        lambda i: 2**60 + 7 * i
    )


CASES = {
    **{
        f"{name}-{generator}": _paper(name, generator)
        for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
        for generator in ("uniform", "skewed")
    },
    "S1-S4": _streaming,
    "weblog": _weblog,
    "variance": _variance,
    "pure-align": _pure_align,
    "string-dimension": _string_dimension,
    "float-facts": _float_facts,
    "huge-values": _huge_values,
}


@pytest.fixture(scope="module")
def cases(tiny_schema):
    return {name: build(tiny_schema) for name, build in CASES.items()}


# -- the worker, in this process --------------------------------------------


@pytest.fixture
def worker():
    """Runs one task here as a pool worker would, with the install and
    scope a task carries; restores the worker state afterwards."""
    saved = dict(mp._WORKER)

    def run(workflow, plan, task, bucket):
        return mp._run_task(
            task, 0, bucket, None,
            install=mp._install_payload(workflow, plan, None, ()),
            scope=("test", None),
        )

    yield run
    mp._WORKER.clear()
    mp._WORKER.update(saved)


@pytest.fixture
def registry():
    registry = SegmentRegistry()
    yield registry
    registry.unlink_all()
    assert leaked_segments(registry.prefix) == []


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Counts block evaluations, columnar or scalar."""
    return count_block_evaluations(monkeypatch)


def plan_for(workflow, records):
    return Optimizer().plan_query(
        workflow, len(records), num_reducers=PARTITIONS
    )


def scatter(transport, workflow, records, plan, registry):
    """The non-empty gather buckets the evaluator would dispatch."""
    if transport == "shm":
        if not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        batch = RecordBatch.from_records(workflow.schema, records)
        if batch is None or not batch.routable():
            pytest.skip("no routable batch: the product ships records")
        buckets, *_rest = mp.MultiprocessEvaluator._scatter_columnar(
            batch, plan, PARTITIONS, registry
        )
    else:
        buckets, *_rest = mp.MultiprocessEvaluator._scatter_records(
            records, plan, PARTITIONS
        )
    return [bucket for bucket in buckets if bucket]


def _view_components(view) -> set:
    return {key[0] for key, _rows in view.blocks()}


def bucket_components(bucket) -> set:
    """The component indices among one bucket's block keys."""
    if not isinstance(bucket, ShmBucket):
        return {key[0] for key, _records in bucket}
    view = bucket.attach()
    try:
        return _view_components(view)
    finally:
        view.close()


def row_map(rows) -> dict:
    """``(measure, region) -> value``; duplicates fail, NaN equals NaN."""
    out = {}
    for name, coords, value in rows:
        assert (name, coords) not in out, (name, coords)
        if isinstance(value, float) and math.isnan(value):
            value = "nan"
        out[name, coords] = value
    return out


def run_tasks(worker, evaluate_calls, caplog, workflow, plan, buckets):
    """Every task through ``_run_task``, each checked against the loop;
    returns all rows the tasks produced."""
    caplog.set_level(logging.WARNING, logger="repro.parallel.shm")
    rows = []
    for task, bucket in enumerate(buckets):
        components = bucket_components(bucket)
        del evaluate_calls[:]
        returned, got = worker(workflow, plan, task, bucket)
        assert returned == task
        # One evaluation per component in the bucket...
        assert 0 < len(evaluate_calls) <= len(components)
        del evaluate_calls[:]
        want = per_block_task_rows(plan, workflow.schema, bucket)
        # ...where the loop evaluated once per block.
        assert len(evaluate_calls) == mp._bucket_block_count(bucket)
        assert row_map(chunk_rows(got)) == row_map(want), f"task {task}"
        rows.extend(got)
    # No ordinal or index array outlived the evaluation frame.
    assert not [
        record for record in caplog.records
        if "still referenced" in record.getMessage()
    ]
    return rows


class TestWorkerTasksAgainstPerBlockLoop:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_task(
        self, cases, worker, registry, evaluate_calls, caplog, name,
        transport,
    ):
        workflow, records = cases[name]
        plan = plan_for(workflow, records)
        buckets = scatter(transport, workflow, records, plan, registry)
        rows = run_tasks(
            worker, evaluate_calls, caplog, workflow, plan, buckets
        )
        oracle = evaluate_centralized(workflow, records)
        result = union_outputs(workflow, rows)
        if name == "float-facts":
            # Per block the float sums fold exactly as before (checked
            # above); against one centralized fold they only round alike.
            assert_results_match(
                result, {n: table.values for n, table in oracle.items()}
            )
        else:
            assert result == oracle

    def test_paths_exercised(self, cases):
        """Each special case reaches the path it is named for."""
        schema_of = {name: cases[name][0].schema for name in cases}
        batch = {
            name: RecordBatch.from_records(schema_of[name], cases[name][1])
            for name in ("string-dimension", "float-facts", "huge-values")
        }
        assert not batch["string-dimension"].routable()
        assert batch["float-facts"].routable()
        assert batch["float-facts"].matrix is None
        assert batch["huge-values"].matrix is not None
        assert not batch["huge-values"].reduction_safe()
        assert vectorized_supports(cases["weblog"][0])
        assert not vectorized_supports(cases["variance"][0])

    def test_buckets_mixing_components(
        self, cases, worker, registry, evaluate_calls, caplog
    ):
        workflow, records = cases["Q1-uniform"]
        plan = plan_for(workflow, records)
        assert len(plan.subplans) == 3
        buckets = scatter("shm", workflow, records, plan, registry)
        mixed = [
            bucket for bucket in buckets
            if len(bucket_components(bucket)) >= 2
        ]
        assert mixed
        run_tasks(worker, evaluate_calls, caplog, workflow, plan, mixed)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_infeasible_key_is_wrong_as_the_loop_is(
        self, tiny_schema, tiny_workflow, tiny_records, worker, registry,
        evaluate_calls, caplog, transport,
    ):
        """The narrow key of ``TestInfeasiblePlansFailLoudly``: blocks
        sharing a bucket must not lend a sliding window their fringe."""
        (component,) = connected_components(tiny_workflow)
        narrow = DistributionKey.of(
            tiny_schema, {"x": "four", "t": ("span", 0, 1)}
        )
        plan = QueryPlan([(
            component,
            Plan(
                scheme=BlockScheme(narrow, {"t": 1}),
                num_reducers=PARTITIONS,
                predicted_max_load=0.0,
                strategy="manual",
            ),
        )])
        buckets = scatter(
            transport, tiny_workflow, tiny_records, plan, registry
        )
        rows = run_tasks(
            worker, evaluate_calls, caplog, tiny_workflow, plan, buckets
        )
        assert union_outputs(tiny_workflow, rows) != evaluate_centralized(
            tiny_workflow, tiny_records
        )


# -- end to end, real worker processes ---------------------------------------

#: ``(blocks, replicated_records, tasks, shm_bytes)`` per query and
#: generator: one task per worker, and one segment holding the batch
#: once plus every bucket's block arrays.  Blocks and replicas are the
#: per-block workers' figures, except Q5 on uniform data, which the
#: optimizer now plans for two reducers rather than eight (it was
#: ``(163, 329)``).
SCATTER_REPORTS = {
    ("Q1", "uniform"): (900, 900, 2, 79200),
    ("Q2", "uniform"): (295, 300, 2, 35680),
    ("Q3", "uniform"): (295, 300, 2, 35680),
    ("Q4", "uniform"): (295, 300, 2, 35680),
    ("Q5", "uniform"): (64, 300, 2, 20896),
    ("Q6", "uniform"): (64, 300, 2, 20896),
    ("Q1", "skewed"): (900, 900, 2, 79200),
    ("Q2", "skewed"): (268, 300, 2, 33952),
    ("Q3", "skewed"): (268, 300, 2, 33952),
    ("Q4", "skewed"): (268, 300, 2, 33952),
    ("Q5", "skewed"): (64, 300, 2, 20896),
    ("Q6", "skewed"): (64, 300, 2, 20896),
}


@pytest.fixture(scope="module")
def pool_evaluator():
    return mp.MultiprocessEvaluator(processes=2)


@pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)
class TestEndToEnd:
    @pytest.mark.parametrize("generator", ["uniform", "skewed"])
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
    def test_matches_centralized(
        self, cases, pool_evaluator, name, generator
    ):
        workflow, records = cases[f"{name}-{generator}"]
        result, report = pool_evaluator.evaluate(workflow, records)
        assert result == evaluate_centralized(workflow, records)
        assert report.transport == "shm"
        assert (
            report.blocks, report.replicated_records, report.tasks,
            report.shm_bytes,
        ) == SCATTER_REPORTS[name, generator]
        assert leaked_segments() == []
