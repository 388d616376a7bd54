"""Holistic basic aggregates on arrays: median, quantiles, distinct counts.

``median``, exact quantiles and ``count_distinct`` run in the vectorized
basic phase (one lexsort by (group, value), then index arithmetic on the
run boundaries), so a workflow built on them keeps the batched map side,
the shared-memory scatter and the columnar reducer.  Every case here
must equal :func:`~repro.local.sortscan.evaluate_centralized` value for
value *and type for type* (an odd group's median is an ``int``, an even
one's a ``float``) through :func:`evaluate_vectorized`,
``ParallelEvaluator`` and the process backend's worker task under both
transports -- and show that it reached the array path: the scalar
``BlockEvaluator`` and the dict composite operators raise while the
product runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cube.batches import RecordBatch
from repro.local import vectorized
from repro.local.sortscan import BlockEvaluator, evaluate_centralized
from repro.local.vectorized import (
    VectorizedBlockEvaluator,
    evaluate_vectorized,
    vectorized_supports,
)
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.obs import Tracer
from repro.optimizer.optimizer import Optimizer
from repro.parallel import multiprocess as mp
from repro.parallel.executor import ParallelEvaluator, union_outputs
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.parallel.shm import SegmentRegistry, leaked_segments, shm_available
from repro.query.builder import WorkflowBuilder
from repro.query.functions import DIFFERENCE, RATIO, quantile_function
from repro.workload import generate_sessions, weblog_query, weblog_schema

from tests.helpers import refuse_dict_operators, typed

PARTITIONS = 4

FRACTIONS = {"q0": 0.0, "q25": 0.25, "q50": 0.5, "q999": 0.999, "q100": 1.0}


def holistic_workflow(schema):
    """Every holistic kernel at <x:value, t:span>, a coarser median, and
    M3's shape: a ``ratio`` of a median over its parent region's."""
    builder = WorkflowBuilder(schema)
    fine = {"x": "value", "t": "span"}
    builder.basic("mid", over=fine, field="v", aggregate="median")
    builder.basic(
        "coarse", over={"x": "four", "t": "span"}, field="v",
        aggregate="median",
    )
    for name, q in FRACTIONS.items():
        builder.basic(
            name, over=fine, field="v", aggregate=quantile_function(q)
        )
    builder.basic("distinct", over=fine, field="v", aggregate="count_distinct")
    (
        builder.composite("relative", over=fine)
        .from_self("mid")
        .from_parent("coarse")
        .combine(RATIO)
    )
    return builder.build()


def _sized_groups():
    """Groups of 1 to 6 facts at <x:value, t:span> (``span = t // 4``),
    odd and even, negative, duplicated, and a zero median under
    ``coarse`` for the ratio's zero rules."""
    groups = {
        (0, 0): [5],
        (1, 0): [-3, 4],
        (2, 1): [7, -7, 7],
        (3, 2): [2, 2, -9, 10],
        (4, 3): [1, 1, 1, 1, 1, 1],
        (5, 7): [-4, -8, -4, -1, -20],
        (8, 5): [0, 0],
        (9, 5): [-6, 6],
    }
    return [
        (x, 4 * span + position % 4, value)
        for (x, span), values in groups.items()
        for position, value in enumerate(values)
    ]


CASES = {
    "sized-groups": _sized_groups,
    # One even group whose sum is far past 2**53; two facts is the most
    # a reduction-safe matrix can hold this close to 2**61.
    "near-2**61": lambda: [(0, 0, 2**61 - 1), (0, 1, 2**61 - 4)],
}


@pytest.fixture
def refuse_scalar(monkeypatch):
    """Make the scalar evaluator and every dict composite operator
    raise: what still answers took the array path."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("the product took the scalar evaluator")

    def arm():
        monkeypatch.setattr(BlockEvaluator, "evaluate", refuse)
        refuse_dict_operators(monkeypatch)

    return arm


def simulated(workflow, records, tracer=None):
    return ParallelEvaluator(
        SimulatedCluster(ClusterConfig(machines=4)), tracer=tracer
    ).evaluate(workflow, records)


def worker_result(workflow, records, transport):
    """Every task of one scatter through ``_run_task``, in this process,
    with the install payload a pool task carries."""
    plan = Optimizer().plan_query(
        workflow, len(records), num_reducers=PARTITIONS
    )
    registry = SegmentRegistry()
    saved = dict(mp._WORKER)
    try:
        if transport == "shm":
            batch = RecordBatch.from_records(workflow.schema, records)
            buckets, *_rest = mp.MultiprocessEvaluator._scatter_columnar(
                batch, plan, PARTITIONS, registry
            )
        else:
            buckets, *_rest = mp.MultiprocessEvaluator._scatter_records(
                records, plan, PARTITIONS
            )
        install = mp._install_payload(workflow, plan, None, ())
        rows = []
        for task, bucket in enumerate(buckets):
            _task, got = mp._run_task(
                task, 0, bucket, None, install=install, scope=("test", None)
            )
            rows.extend(got)
    finally:
        mp._WORKER.clear()
        mp._WORKER.update(saved)
        registry.unlink_all()
    assert leaked_segments(registry.prefix) == []
    return union_outputs(workflow, rows)


@pytest.mark.parametrize("case", sorted(CASES))
class TestHolisticKernels:
    def test_the_kernels_are_supported(self, tiny_schema, case):
        workflow = holistic_workflow(tiny_schema)
        assert vectorized_supports(workflow)
        batch = RecordBatch.from_records(tiny_schema, CASES[case]())
        assert batch.matrix is not None and batch.reduction_safe()

    def test_evaluate_vectorized(self, tiny_schema, refuse_scalar, case):
        workflow, records = holistic_workflow(tiny_schema), CASES[case]()
        oracle = evaluate_centralized(workflow, records)
        refuse_scalar()
        assert typed(evaluate_vectorized(workflow, records)) == typed(oracle)

    def test_simulated_cluster(self, tiny_schema, refuse_scalar, case):
        workflow, records = holistic_workflow(tiny_schema), CASES[case]()
        oracle = evaluate_centralized(workflow, records)
        refuse_scalar()
        outcome = simulated(workflow, records)
        assert typed(outcome.result) == typed(oracle)
        assert outcome.columnar.batch_tasks > 0
        assert outcome.columnar.fallback_tasks == 0

    @pytest.mark.parametrize("transport", ["shm", "records"])
    def test_worker_tasks(self, tiny_schema, refuse_scalar, case, transport):
        if transport == "shm" and not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        workflow, records = holistic_workflow(tiny_schema), CASES[case]()
        oracle = evaluate_centralized(workflow, records)
        if transport == "shm":
            # Record lists are evaluated by the scalar half by design.
            refuse_scalar()
        assert typed(worker_result(workflow, records, transport)) == typed(
            oracle
        )


class TestKnownValues:
    """The kernels' answers, written out, so the oracle is not the only
    witness."""

    def test_sized_groups(self, tiny_schema):
        result = evaluate_vectorized(
            holistic_workflow(tiny_schema), _sized_groups()
        )
        assert [result["mid"][(x, span)] for x, span in (
            (0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 7), (8, 5), (9, 5)
        )] == [5, 0.5, 7, 2.0, 1.0, -4, 0.0, 0.0]
        assert type(result["mid"][(0, 0)]) is int
        assert result["distinct"][(3, 2)] == 3
        assert result["q0"][(5, 7)] == -20
        assert result["q25"][(3, 2)] == 2
        assert result["q999"][(5, 7)] == -1
        assert result["q100"][(1, 0)] == 4
        # (x=8, x=9) share one coarse region, whose median is 0: the
        # ratio of 0.0 over 0 is 0.0.
        assert result["relative"][(8, 5)] == 0.0

    def test_difference_of_mixed_medians_falls_back(
        self, tiny_schema, monkeypatch
    ):
        """``difference``'s result type varies per row (``int - int``
        is an ``int``), so over mixed columns it keeps the dict
        operator, alone."""
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "mid", over={"x": "value", "t": "span"}, field="v",
            aggregate="median",
        )
        builder.basic(
            "coarse", over={"x": "four", "t": "span"}, field="v",
            aggregate="median",
        )
        (
            builder.composite("delta", over={"x": "value", "t": "span"})
            .from_self("mid")
            .from_parent("coarse")
            .combine(DIFFERENCE)
        )
        workflow, records = builder.build(), _sized_groups()
        taken = []
        original = vectorized.compute_composite

        def counting(measure, *args, **kwargs):
            taken.append(measure.name)
            return original(measure, *args, **kwargs)

        monkeypatch.setattr(vectorized, "compute_composite", counting)
        assert typed(evaluate_vectorized(workflow, records)) == typed(
            evaluate_centralized(workflow, records)
        )
        assert taken == ["delta"]

    def test_near_2_61(self, tiny_schema):
        result = evaluate_vectorized(
            holistic_workflow(tiny_schema), CASES["near-2**61"]()
        )
        assert result["mid"][(0, 0)] == (2**62 - 5) / 2
        assert type(result["mid"][(0, 0)]) is float


@settings(deadline=None, max_examples=40)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 15), st.integers(0, 31), st.integers(-6, 6)
        ),
        min_size=1,
        max_size=80,
    ),
)
def test_random_groups_match_the_oracle(tiny_schema, records):
    """Small value ranges make duplicates, and few records per region
    make groups of one and two, odd and even."""
    workflow = holistic_workflow(tiny_schema)
    evaluator = VectorizedBlockEvaluator(workflow)
    # A dict of column tables, not the scalar half's ResultSet.
    assert isinstance(evaluator.evaluate_columns(records), dict)
    assert typed(evaluator.evaluate(records)) == typed(
        evaluate_centralized(workflow, records)
    )


class TestWeblog:
    """The paper's M1-M4: two medians, a ratio, a moving average."""

    @pytest.fixture(scope="class")
    def weblog(self):
        schema = weblog_schema(days=1)
        workflow = weblog_query(schema)
        records = generate_sessions(schema, 2000, seed=13)
        return workflow, records, evaluate_centralized(workflow, records)

    def test_simulated_cluster_takes_no_fallback(self, weblog, refuse_scalar):
        workflow, records, oracle = weblog
        refuse_scalar()
        tracer = Tracer()
        outcome = simulated(workflow, records, tracer=tracer)
        assert typed(outcome.result) == typed(oracle)
        assert outcome.columnar.batch_tasks > 0
        assert outcome.columnar.fallback_tasks == 0
        spans = tracer.find("block-composites")
        assert spans
        assert not [span for span in spans if "fallbacks" in span.attributes]

    @pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable"
    )
    def test_process_backend_ships_shared_memory(self, weblog):
        workflow, records, oracle = weblog
        with MultiprocessEvaluator(processes=2) as evaluator:
            result, report = evaluator.evaluate(
                workflow, records, num_partitions=4
            )
        assert typed(result) == typed(oracle)
        assert report.transport == "shm"
        assert report.shm_bytes > 0
        assert leaked_segments() == []
