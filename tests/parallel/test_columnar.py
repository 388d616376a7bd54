"""Columnar map side and transport: chosen from the workflow and data.

The columnar pipeline is an *optimization*, never a semantic switch:
the evaluators take it when every aggregate is vectorized and the
records form a routable batch, and the scalar path otherwise.  Whatever
the workload, fallback or injected chaos, results must equal
:func:`evaluate_centralized` -- and falling back must not even change
the simulated counters.
"""

import random

import pytest

from repro.cube import Attribute, Schema, UniformHierarchy
from repro.cube.batches import RecordBatch
from repro.faults import FaultPlan
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.parallel.shm import leaked_segments, shm_available
from repro.query.builder import WorkflowBuilder
from repro.workload import (
    anomaly_query,
    generate_flows,
    generate_sales,
    generate_sessions,
    network_schema,
    retail_query,
    retail_schema,
    weblog_query,
    weblog_schema,
)

WORKLOADS = {
    # Retail revenue is a rounded float: the batch is *typed* (float64
    # measure column, no int plane), so map tasks route columnar while
    # the per-block evaluation takes the exact scalar path.
    "retail": lambda: (
        retail_query(retail_schema()),
        generate_sales(retail_schema(), 800, seed=9),
        "typed",
    ),
    # Weblog's basic measures are medians, computed on arrays like the
    # distributive ones.
    "weblog": lambda: (
        weblog_query(weblog_schema(days=1)),
        generate_sessions(weblog_schema(days=1), 800, seed=9),
        "batch",
    ),
    "network": lambda: (
        anomaly_query(network_schema(hours=2)),
        generate_flows(network_schema(hours=2), 800, seed=9),
        "batch",
    ),
}


def run(workflow, records, **config):
    cluster = SimulatedCluster(ClusterConfig(machines=8))
    evaluator = ParallelEvaluator(cluster, ExecutionConfig(**config))
    return evaluator.evaluate(workflow, records)


def assert_approx_equal(result, oracle):
    """Same tables, same coordinates, values equal up to float rounding.

    Float facts (retail revenue) are summed in block order by the
    parallel backends and in sort order by the centralized one, so
    exact equality is only guaranteed for integer data.
    """
    assert set(result.tables) == set(oracle.tables)
    for name, table in result.tables.items():
        expected = dict(oracle[name].items())
        actual = dict(table.items())
        assert set(actual) == set(expected)
        for coords, value in actual.items():
            assert value == pytest.approx(expected[coords], rel=1e-9)


class TestWorkloadInvariance:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("early", [False, True])
    def test_columnar_matches_oracle(self, name, early):
        workflow, records, expected_path = WORKLOADS[name]()
        if early and not workflow.supports_early_aggregation():
            pytest.skip("workflow does not support early aggregation")
        oracle = evaluate_centralized(workflow, records)
        outcome = run(workflow, records, early_aggregation=early)
        stats = outcome.columnar
        if expected_path == "typed":
            # Non-integer facts: the typed batch routes columnar, each
            # block evaluates on the scalar path, and float summation
            # order costs exactness against the centralized oracle
            # (columnar or not -- see the fallback test for the
            # bit-identity guarantee between the two map sides).
            assert_approx_equal(outcome.result, oracle)
            assert stats.batch_tasks > 0
            assert stats.fallback_tasks == 0
        else:
            assert outcome.result == oracle
            assert stats.batch_tasks > 0
            assert stats.fallback_tasks == 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("early", [False, True])
    def test_mode_does_not_change_simulation(
        self, name, early, monkeypatch
    ):
        # Every map task declines the batch (as it would for data it
        # cannot route) and takes the scalar mapper instead.
        workflow, records, expected_path = WORKLOADS[name]()
        if early and not workflow.supports_early_aggregation():
            pytest.skip("workflow does not support early aggregation")
        on = run(workflow, records, early_aggregation=early)
        monkeypatch.setattr(RecordBatch, "routable", lambda self: False)
        off = run(workflow, records, early_aggregation=early)
        assert on.columnar.fallback_tasks == 0
        assert off.columnar.batch_tasks == 0
        assert off.columnar.fallback_tasks > 0
        assert on.result == off.result
        assert on.response_time == off.response_time
        assert on.job.counters.__dict__ == off.job.counters.__dict__


@pytest.fixture(scope="module")
def named_x_schema():
    """``x`` carries names, not int codes: no batch can route it."""
    x = UniformHierarchy("x", {"value": 1}, base_cardinality=3)
    t = UniformHierarchy("t", {"tick": 1, "span": 4}, base_cardinality=32)
    return Schema([Attribute("x", x), Attribute("t", t)], facts=["v"])


@pytest.fixture(scope="module")
def named_x_workflow(named_x_schema):
    builder = WorkflowBuilder(named_x_schema)
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


@pytest.fixture
def named_x_records():
    rng = random.Random(3)
    return [
        (
            rng.choice(["east", "north", "west"]),
            rng.randrange(32),
            rng.randrange(1, 10),
        )
        for _ in range(400)
    ]


class TestNonRoutableData:
    @pytest.mark.parametrize("early", [False, True])
    def test_string_dimension_takes_scalar_mapper(
        self, named_x_workflow, named_x_records, early
    ):
        outcome = run(
            named_x_workflow, named_x_records, early_aggregation=early
        )
        assert outcome.result == evaluate_centralized(
            named_x_workflow, named_x_records
        )
        assert outcome.columnar.batch_tasks == 0
        assert outcome.columnar.fallback_records == len(named_x_records)

    def test_string_dimension_ships_record_lists(
        self, named_x_workflow, named_x_records
    ):
        result, report = MultiprocessEvaluator(processes=2).evaluate(
            named_x_workflow, named_x_records, num_partitions=4
        )
        assert result == evaluate_centralized(
            named_x_workflow, named_x_records
        )
        assert report.transport == "records"
        assert report.shm_bytes == 0


class TestUnsupportedAggregates:
    def make_workflow(self, tiny_schema, aggregate):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "stat", over={"x": "four", "t": "span"},
            field="v", aggregate=aggregate,
        )
        return builder.build()

    def test_auto_mode_skips_columnar(self, tiny_schema, tiny_records):
        # ``variance`` has no array form: the scalar mapper throughout.
        workflow = self.make_workflow(tiny_schema, "variance")
        outcome = run(workflow, tiny_records)
        assert outcome.columnar is None
        assert outcome.result == evaluate_centralized(
            workflow, tiny_records
        )

    def test_unsupported_workflow_ships_record_lists(
        self, tiny_schema, tiny_records
    ):
        workflow = self.make_workflow(tiny_schema, "variance")
        result, report = MultiprocessEvaluator(processes=2).evaluate(
            workflow, tiny_records, num_partitions=4
        )
        assert result == evaluate_centralized(workflow, tiny_records)
        assert report.transport == "records"

    def test_holistic_workflow_takes_columnar(self, tiny_schema, tiny_records):
        workflow = self.make_workflow(tiny_schema, "median")
        outcome = run(workflow, tiny_records)
        assert outcome.columnar.batch_tasks > 0
        assert outcome.columnar.fallback_tasks == 0
        assert outcome.result == evaluate_centralized(
            workflow, tiny_records
        )

    @pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable"
    )
    def test_holistic_workflow_ships_shared_memory(
        self, tiny_schema, tiny_records
    ):
        workflow = self.make_workflow(tiny_schema, "median")
        with MultiprocessEvaluator(processes=2) as evaluator:
            result, report = evaluator.evaluate(
                workflow, tiny_records, num_partitions=4
            )
        assert result == evaluate_centralized(workflow, tiny_records)
        assert report.transport == "shm"
        assert leaked_segments() == []


class TestChaosWithColumnar:
    def test_chaos_invariance_columnar_on(self, tiny_workflow, tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        for seed in range(4):
            cluster = SimulatedCluster(ClusterConfig(machines=8))
            cluster.install_faults(FaultPlan.random(seed, 8))
            evaluator = ParallelEvaluator(
                cluster,
                ExecutionConfig(early_aggregation=True),
            )
            outcome = evaluator.evaluate(tiny_workflow, tiny_records)
            assert outcome.result == oracle, f"chaos seed {seed}"


class TestMultiprocessTransport:
    @pytest.fixture
    def setup(self, tiny_workflow, tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        return tiny_workflow, tiny_records, oracle

    def test_columnar_transport_matches_oracle(self, setup):
        workflow, records, oracle = setup
        evaluator = MultiprocessEvaluator(processes=2)
        result, report = evaluator.evaluate(
            workflow, records, num_partitions=4
        )
        assert result == oracle
        # Routable batches travel through shared memory wherever
        # /dev/shm exists; record lists are the portable fallback.
        expected = "shm" if shm_available() else "records"
        assert report.transport == expected
        assert report.shipped_bytes > 0

    @pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable"
    )
    def test_transport_modes_agree(self, setup, monkeypatch):
        workflow, records, oracle = setup
        evaluator = MultiprocessEvaluator(processes=2)
        col, col_report = evaluator.evaluate(
            workflow, records, num_partitions=4
        )
        monkeypatch.setattr(
            "repro.parallel.multiprocess.shm_available", lambda: False
        )
        sca, sca_report = evaluator.evaluate(
            workflow, records, num_partitions=4
        )
        assert col == sca == oracle
        assert col_report.transport == "shm"
        assert sca_report.transport == "records"
        assert sca_report.shm_bytes == 0
        assert leaked_segments() == []
        assert col_report.blocks == sca_report.blocks
        assert col_report.replicated_records == (
            sca_report.replicated_records
        )
        # Only descriptors cross the pipe when the buckets are mapped.
        assert col_report.shipped_bytes < sca_report.shipped_bytes
