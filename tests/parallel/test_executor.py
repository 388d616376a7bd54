"""Tests for the one-round parallel evaluator."""

import numpy as np
import pytest

from repro.distribution.clustering import BlockScheme
from repro.distribution.derive import minimal_feasible_key
from repro.distribution.keys import DistributionKey
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.timing import ClusterConfig
from repro.optimizer.optimizer import Plan
from repro.parallel.executor import (
    DuplicateResultError,
    ExecutionConfig,
    ParallelEvaluator,
)
from repro.query.builder import WorkflowBuilder
from repro.query.workflow import connected_components
from repro.serving.cache import MeasureCache
from repro.serving.planner import (
    DISPOSITION_DERIVE,
    DISPOSITION_EXECUTE,
    classify_component,
)
from repro.serving.signature import cache_key


@pytest.fixture(scope="module")
def oracle_cache():
    return {}


def oracle(cache, workflow, records):
    key = id(workflow)
    if key not in cache:
        cache[key] = evaluate_centralized(workflow, records)
    return cache[key]


class TestCorrectness:
    def test_matches_oracle(
        self, small_cluster, tiny_workflow, tiny_records, oracle_cache
    ):
        evaluator = ParallelEvaluator(small_cluster)
        outcome = evaluator.evaluate(tiny_workflow, tiny_records)
        assert outcome.result == oracle(
            oracle_cache, tiny_workflow, tiny_records
        )

    def test_weblog_matches_oracle(self, small_cluster, weblog):
        _schema, workflow, records = weblog
        outcome = ParallelEvaluator(small_cluster).evaluate(workflow, records)
        assert outcome.result == evaluate_centralized(workflow, records)

    @pytest.mark.parametrize("num_reducers", [1, 2, 7, 32])
    def test_any_reducer_count(
        self, small_cluster, tiny_workflow, tiny_records, num_reducers,
        oracle_cache,
    ):
        evaluator = ParallelEvaluator(
            small_cluster, ExecutionConfig(num_reducers=num_reducers)
        )
        outcome = evaluator.evaluate(tiny_workflow, tiny_records)
        assert outcome.result == oracle(
            oracle_cache, tiny_workflow, tiny_records
        )
        assert outcome.job.counters.reduce_tasks == num_reducers

    @pytest.mark.parametrize("cf", [1, 2, 3, 5, 8])
    def test_any_clustering_factor(
        self, small_cluster, tiny_workflow, tiny_records, cf, oracle_cache
    ):
        """Correctness never depends on cf -- only performance does."""
        key = minimal_feasible_key(tiny_workflow)
        attr = key.annotated_attributes()[0]
        plan = Plan(
            scheme=BlockScheme(key, {attr: cf}),
            num_reducers=4,
            predicted_max_load=0.0,
            strategy="manual",
        )
        evaluator = ParallelEvaluator(small_cluster)
        outcome = evaluator.evaluate(tiny_workflow, tiny_records, plan=plan)
        assert outcome.result == oracle(
            oracle_cache, tiny_workflow, tiny_records
        )

    def test_any_feasible_coarser_key(
        self, small_cluster, tiny_workflow, tiny_records, oracle_cache
    ):
        key = minimal_feasible_key(tiny_workflow).drop_annotations()
        plan = Plan(
            scheme=BlockScheme(key),
            num_reducers=4,
            predicted_max_load=0.0,
            strategy="manual",
        )
        outcome = ParallelEvaluator(small_cluster).evaluate(
            tiny_workflow, tiny_records, plan=plan
        )
        assert outcome.result == oracle(
            oracle_cache, tiny_workflow, tiny_records
        )

    def test_empty_dataset(self, small_cluster, tiny_workflow):
        outcome = ParallelEvaluator(small_cluster).evaluate(tiny_workflow, [])
        assert outcome.result.total_rows() == 0

    def test_multi_component_query(self, small_cluster, tiny_schema):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("a", over={"x": "value"}, field="v", aggregate="sum")
        builder.basic("b", over={"t": "tick"}, field="v", aggregate="count")
        workflow = builder.build()
        records = [(i % 16, i % 32, 1) for i in range(300)]
        outcome = ParallelEvaluator(small_cluster).evaluate(workflow, records)
        assert outcome.result == evaluate_centralized(workflow, records)
        # Each record shipped once per component.
        assert outcome.job.counters.replication_factor == pytest.approx(2.0)


class TestInfeasiblePlansFailLoudly:
    def test_infeasible_key_is_flagged_and_wrong(
        self, small_cluster, tiny_workflow, tiny_records, tiny_schema,
        oracle_cache,
    ):
        """A too-narrow annotation loses window data -- and is_feasible
        catches it up front.

        The trailing window looks back 3 ticks, needing span(-1, 0); a
        forward annotation span(0, 1) ships the wrong fringe, so window
        anchors near block boundaries aggregate incomplete data.
        """
        from repro.distribution.derive import is_feasible

        narrow = DistributionKey.of(
            tiny_schema, {"x": "four", "t": ("span", 0, 1)}
        )
        assert not is_feasible(narrow, tiny_workflow)
        plan = Plan(
            scheme=BlockScheme(narrow, {"t": 1}),
            num_reducers=4,
            predicted_max_load=0.0,
            strategy="manual",
        )
        outcome = ParallelEvaluator(small_cluster).evaluate(
            tiny_workflow, tiny_records, plan=plan
        )
        assert outcome.result != oracle(
            oracle_cache, tiny_workflow, tiny_records
        )

    def test_duplicate_guard(self, tiny_workflow):
        from repro.parallel.executor import union_outputs

        chunks = [("base", [(0, 0)], [1]), ("base", [(0, 0)], [2])]
        with pytest.raises(DuplicateResultError):
            union_outputs(tiny_workflow, chunks)

    def test_duplicate_guard_across_chunks_and_buckets(self, tiny_workflow):
        """Array chunks of two buckets, then a list chunk: the first
        duplicate in bucket order is named, whatever form holds it."""
        from repro.parallel.executor import union_outputs

        first_bucket = [
            ("base", np.array([[0, 0], [1, 2]]), np.array([1, 2])),
            ("rolled", np.array([[0, 0]]), np.array([3])),
        ]
        second_bucket = [
            ("base", np.array([[3, 3], [1, 2], [0, 0]]), np.array([4, 5, 6])),
        ]
        with pytest.raises(DuplicateResultError, match=r"region \(1, 2\)"):
            union_outputs(tiny_workflow, first_bucket + second_bucket)
        scalar_bucket = [("rolled", [(2, 2), (0, 0)], [7, 8])]
        with pytest.raises(DuplicateResultError, match=r"'rolled'.*\(0, 0\)"):
            union_outputs(tiny_workflow, first_bucket + scalar_bucket)

    def test_component_count_mismatch(
        self, small_cluster, tiny_schema, tiny_workflow, tiny_records
    ):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("a", over={"x": "value"}, field="v", aggregate="sum")
        builder.basic("b", over={"t": "tick"}, field="v", aggregate="count")
        two_component = builder.build()
        plan = Plan(
            scheme=BlockScheme(minimal_feasible_key(tiny_workflow)),
            num_reducers=2,
            predicted_max_load=0.0,
            strategy="manual",
        )
        with pytest.raises(ValueError, match="single-component"):
            ParallelEvaluator(small_cluster).evaluate(
                two_component, tiny_records, plan=plan
            )


class TestEarlyAggregation:
    def test_matches_plain_run(
        self, small_cluster, tiny_workflow, tiny_records, oracle_cache
    ):
        early = ParallelEvaluator(
            small_cluster, ExecutionConfig(early_aggregation=True)
        )
        outcome = early.evaluate(tiny_workflow, tiny_records)
        assert outcome.result == oracle(
            oracle_cache, tiny_workflow, tiny_records
        )
        assert outcome.job.counters.combine_output_records > 0

    def test_shrinks_shuffle_on_coarse_measures(
        self, small_cluster, tiny_schema, tiny_records
    ):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("m", over={"x": "four"}, field="v", aggregate="sum")
        workflow = builder.build()
        plain = ParallelEvaluator(small_cluster).evaluate(
            workflow, tiny_records
        )
        early = ParallelEvaluator(
            small_cluster, ExecutionConfig(early_aggregation=True)
        ).evaluate(workflow, tiny_records)
        assert early.result == plain.result
        assert (
            early.job.counters.shuffle_bytes
            < plain.job.counters.shuffle_bytes
        )

    def test_holistic_measures_rejected(self, small_cluster, weblog):
        _schema, workflow, records = weblog  # medians are holistic
        evaluator = ParallelEvaluator(
            small_cluster, ExecutionConfig(early_aggregation=True)
        )
        with pytest.raises(ValueError, match="early aggregation"):
            evaluator.evaluate(workflow, records)


class TestCombinedSort:
    def test_faster_and_identical(
        self, small_cluster, tiny_workflow, tiny_records, oracle_cache
    ):
        plain = ParallelEvaluator(small_cluster).evaluate(
            tiny_workflow, tiny_records
        )
        merged = ParallelEvaluator(
            small_cluster, ExecutionConfig(combined_sort=True)
        ).evaluate(tiny_workflow, tiny_records)
        assert merged.result == plain.result
        assert merged.breakdown.group_sort == 0.0
        assert merged.response_time <= plain.response_time


class TestReporting:
    def test_report_contents(self, small_cluster, tiny_workflow, tiny_records):
        outcome = ParallelEvaluator(small_cluster).evaluate(
            tiny_workflow, tiny_records
        )
        assert outcome.response_time > 0
        assert outcome.local_stats.records >= len(tiny_records)
        assert outcome.job.counters.map_input_records == len(tiny_records)
        text = outcome.describe()
        assert "plan:" in text and "rows:" in text

    def test_failure_recovery_end_to_end(
        self, tiny_workflow, tiny_records, oracle_cache
    ):
        cluster = SimulatedCluster(ClusterConfig(machines=6, replication=3))
        evaluator = ParallelEvaluator(cluster)
        baseline = evaluator.evaluate(tiny_workflow, tiny_records)
        cluster.fail_machine(0)
        cluster.fail_machine(1)
        degraded = evaluator.evaluate(tiny_workflow, tiny_records)
        assert degraded.result == baseline.result


class TestLogging:
    def test_plan_and_job_logged(
        self, small_cluster, tiny_workflow, tiny_records, caplog
    ):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro"):
            ParallelEvaluator(small_cluster).evaluate(
                tiny_workflow, tiny_records
            )
        messages = " ".join(record.message for record in caplog.records)
        assert "evaluating 6 measures" in messages
        assert "job finished" in messages
        assert "candidates" in messages


class TestDataLoss:
    def test_unavailable_data_raises(self, tiny_workflow, tiny_records):
        """Losing every replica of a block is an error, not a silent
        partial answer."""
        from repro.mapreduce.dfs import DataUnavailableError

        cluster = SimulatedCluster(ClusterConfig(machines=4, replication=2))
        cluster.write_file("doomed", tiny_records)
        handle = cluster.dfs.open("doomed")
        block = handle.blocks[0]
        for machine in block.replicas:
            cluster.fail_machine(machine)
        with pytest.raises(DataUnavailableError):
            ParallelEvaluator(cluster).evaluate(tiny_workflow, handle)


class TestRoundRobinPartitioner:
    def test_validated(self):
        with pytest.raises(ValueError, match="partitioner"):
            ExecutionConfig(partitioner="fortune_teller")

    def test_matches_oracle(
        self, small_cluster, tiny_workflow, tiny_records, oracle_cache
    ):
        outcome = ParallelEvaluator(
            small_cluster, ExecutionConfig(partitioner="round_robin")
        ).evaluate(tiny_workflow, tiny_records)
        assert outcome.result == oracle(
            oracle_cache, tiny_workflow, tiny_records
        )

    def test_balances_uniform_blocks_at_least_as_well(self, tiny_schema):
        """On uniform data, deterministic round-robin never loses to the
        random hash assignment on the max reducer load."""
        from repro.query.builder import WorkflowBuilder

        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "m", over={"x": "value", "t": "span"}, field="v", aggregate="sum"
        )
        workflow = builder.build()
        records = [(i % 16, (i * 7) % 32, 1) for i in range(4096)]

        def run(partitioner):
            cluster = SimulatedCluster(ClusterConfig(machines=8))
            return ParallelEvaluator(
                cluster, ExecutionConfig(partitioner=partitioner)
            ).evaluate(workflow, records)

        hashed = run("hash")
        robin = run("round_robin")
        assert robin.result == hashed.result
        assert robin.job.max_reducer_load <= hashed.job.max_reducer_load

    def test_multi_component_interleaving(self, small_cluster, tiny_schema):
        from repro.query.builder import WorkflowBuilder

        builder = WorkflowBuilder(tiny_schema)
        builder.basic("a", over={"x": "value"}, field="v", aggregate="sum")
        builder.basic("b", over={"t": "tick"}, field="v", aggregate="count")
        workflow = builder.build()
        records = [(i % 16, i % 32, 1) for i in range(512)]
        outcome = ParallelEvaluator(
            small_cluster, ExecutionConfig(partitioner="round_robin")
        ).evaluate(workflow, records)
        assert outcome.result == evaluate_centralized(workflow, records)


class TestSamplingPartitionerGuard:
    def test_round_robin_with_sampling_rejected(self):
        from repro.optimizer import OptimizerConfig

        with pytest.raises(ValueError, match="hash partitioner"):
            ExecutionConfig(
                partitioner="round_robin",
                optimizer=OptimizerConfig(use_sampling=True),
            )


def _disposition_with_cached_basics(workflow, records):
    """What the measure cache's classifier makes of *workflow* once
    every basic measure's exact table is cached (composites are not)."""
    cache = MeasureCache()
    tables = evaluate_centralized(workflow, records).tables
    for measure in workflow.basic_measures():
        cache.put(cache_key("fp", measure), tables[measure.name])
    return {
        classify_component(cache, "fp", "q", component).disposition
        for component in connected_components(workflow)
    }


def _parent_only(builder):
    builder.basic("coarse", over={"t": "span"}, field="v",
                  aggregate="sum")
    builder.composite(
        "spread", over={"x": "value", "t": "tick"}
    ).from_parent("coarse")


def _parent_chain(builder):
    """Two parent/child-only composites stacked on one coarser basic."""
    builder.basic("coarse", over={"t": "span"}, field="v",
                  aggregate="sum")
    builder.composite(
        "mid", over={"x": "four", "t": "span"}
    ).from_parent("coarse")
    builder.composite(
        "spread", over={"x": "value", "t": "tick"}
    ).from_parent("mid")


class TestEarlyAggregationAnchoring:
    def test_pure_align_without_finer_basic_rejected_up_front(
        self, small_cluster, tiny_schema, tiny_records
    ):
        """A parent/child-only composite cannot be anchored from partial
        states; the capability check must say so before the job runs,
        and the cache must not try to derive it from cached basics."""
        for build in (_parent_only, _parent_chain):
            builder = WorkflowBuilder(tiny_schema)
            build(builder)
            workflow = builder.build()
            assert not workflow.supports_early_aggregation()
            assert not workflow.anchored_without_records()
            assert _disposition_with_cached_basics(
                workflow, tiny_records
            ) == {DISPOSITION_EXECUTE}
            evaluator = ParallelEvaluator(
                small_cluster, ExecutionConfig(early_aggregation=True)
            )
            with pytest.raises(ValueError, match="early aggregation"):
                evaluator.evaluate(workflow, tiny_records)
            # The non-early path handles it fine.
            outcome = ParallelEvaluator(small_cluster).evaluate(
                workflow, tiny_records
            )
            assert outcome.result == evaluate_centralized(
                workflow, tiny_records
            )

    def test_pure_align_with_finer_basic_in_component_supported(
        self, small_cluster, tiny_schema, tiny_records
    ):
        """Anchoring works when a finer basic shares the component."""
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "fine", over={"x": "value"}, field="v", aggregate="sum"
        )
        builder.composite("top", over={"x": "four"}).from_children(
            "fine", aggregate="sum"
        )
        builder.composite("spread", over={"x": "value"}).from_parent("top")
        workflow = builder.build()
        assert workflow.supports_early_aggregation()
        assert _disposition_with_cached_basics(
            workflow, tiny_records
        ) == {DISPOSITION_DERIVE}
        outcome = ParallelEvaluator(
            small_cluster, ExecutionConfig(early_aggregation=True)
        ).evaluate(workflow, tiny_records)
        assert outcome.result == evaluate_centralized(workflow, tiny_records)

    def test_finer_basic_in_other_component_does_not_count(
        self, tiny_schema
    ):
        """A finer basic in a different component cannot anchor."""
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "fine", over={"x": "value", "t": "tick"}, field="v",
            aggregate="sum",
        )
        builder.basic("top", over={"x": "four"}, field="v", aggregate="sum")
        builder.composite(
            "spread", over={"x": "value", "t": "tick"}
        ).from_parent("top")
        workflow = builder.build()
        assert not workflow.supports_early_aggregation()


class TestUnion:
    @pytest.mark.parametrize("backend", ["simulated", "processes"])
    def test_equal_coordinates_share_region_tuples(
        self, tiny_workflow, tiny_records, backend
    ):
        """``coarse`` and ``rolled`` cover the same regions: their
        tables share one tuple per region, not one each."""
        if backend == "simulated":
            result = ParallelEvaluator(
                SimulatedCluster(ClusterConfig(machines=4))
            ).evaluate(tiny_workflow, tiny_records).result
        else:
            from repro.parallel.multiprocess import MultiprocessEvaluator

            with MultiprocessEvaluator(processes=2) as evaluator:
                result, _report = evaluator.evaluate(
                    tiny_workflow, tiny_records
                )
        coarse = {region: region for region in result["coarse"].values}
        rolled = list(result["rolled"].values)
        assert rolled and set(rolled) == set(coarse)
        assert all(region is coarse[region] for region in rolled)


def test_job_spans_bracket_the_execution(tiny_workflow, tiny_records):
    """The ``map`` and ``reduce`` spans span the wall intervals the run
    spent routing and evaluating buckets, though the clock prices the
    run only afterwards."""
    from repro.obs import Tracer

    tracer = Tracer()
    outcome = ParallelEvaluator(
        SimulatedCluster(ClusterConfig(machines=4)), tracer=tracer
    ).evaluate(tiny_workflow, tiny_records)
    (job,) = tracer.find("job")
    (map_span,) = tracer.find("map")
    (reduce_span,) = tracer.find("reduce")
    assert map_span.parent_id == reduce_span.parent_id == job.span_id
    assert job.wall_start == map_span.wall_start
    assert map_span.wall_start <= map_span.wall_end <= reduce_span.wall_start
    evaluated = tracer.find("block-sort")
    assert evaluated
    # The phase stamps are perf_counter readings moved onto the
    # tracer's clock at accounting time; allow for the two clocks.
    slack = 1e-3
    for span in evaluated:
        assert reduce_span.wall_start - slack <= span.wall_start
        assert span.wall_end <= reduce_span.wall_end + slack
    report = outcome.job
    assert report.wall_map_start <= report.wall_map_end
    assert report.wall_map_end <= report.wall_reduce_start
