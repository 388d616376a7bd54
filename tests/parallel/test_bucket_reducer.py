"""One sort/scan per reducer bucket (Section III-D), checked against the
per-block loop it replaced.

The loop lives on in :mod:`tests.helpers` as the oracle: the bucket
reducer must give the same answer *and* the same virtual clock, job
counters, served-block count and local work counters, on every query
and under every execution setting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.distribution.clustering import BlockScheme
from repro.distribution.derive import minimal_feasible_key
from repro.distribution.keys import DistributionKey
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.obs import Tracer
from repro.optimizer.optimizer import Plan, QueryPlan
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.query.builder import WorkflowBuilder
from repro.query.workflow import connected_components
from repro.workload import (
    all_queries,
    generate_sessions,
    generate_skewed,
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
    PerBlockLoopEvaluator,
    assert_results_match,
    count_block_evaluations,
)


def _cluster():
    return SimulatedCluster(ClusterConfig(machines=4))


def _paper(name):
    def build():
        schema = paper_schema(days=3, temporal_base="minute")
        records = generate_skewed(schema, 300, seed=7, skew_fraction=0.25)
        return all_queries(schema)[name], records

    return build


def _streaming():
    schema = streaming_schema(days=1)
    records = [
        record for batch in session_stream(schema, 3, 100, seed=5)
        for record in batch
    ]
    return streaming_query(schema), records


def _weblog():
    schema = weblog_schema(days=1)
    return weblog_query(schema), generate_sessions(schema, 300, seed=5)


def _tiny_records():
    return [((7 * i) % 16, (11 * i) % 32, 1 + i % 9) for i in range(300)]


def _pure_align(tiny_schema):
    """A composite with only a parent/child edge: anchored on records."""
    builder = WorkflowBuilder(tiny_schema)
    builder.basic("coarse", over={"t": "span"}, field="v", aggregate="sum")
    builder.composite(
        "spread", over={"x": "value", "t": "tick"}
    ).from_parent("coarse")
    return builder.build(), _tiny_records()


def _pure_align_early(tiny_schema):
    """The same shape with a finer basic to anchor on: supports early
    aggregation, where anchors come from the merged tables."""
    builder = WorkflowBuilder(tiny_schema)
    builder.basic("fine", over={"x": "value"}, field="v", aggregate="sum")
    builder.composite("top", over={"x": "four"}).from_children(
        "fine", aggregate="sum"
    )
    builder.composite("spread", over={"x": "value"}).from_parent("top")
    return builder.build(), _tiny_records()


WORKLOADS = {
    **{name: _paper(name) for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")},
    "S1-S4": _streaming,
    "weblog": _weblog,
}


@pytest.fixture(scope="module")
def workloads(tiny_schema):
    built = {name: build() for name, build in WORKLOADS.items()}
    built["pure-align"] = _pure_align(tiny_schema)
    built["pure-align-early"] = _pure_align_early(tiny_schema)
    return {
        name: (workflow, records, evaluate_centralized(workflow, records))
        for name, (workflow, records) in built.items()
    }


WORKLOAD_NAMES = sorted(WORKLOADS) + ["pure-align", "pure-align-early"]


def manual_plan(workflow, cf, num_reducers):
    """Every component under its minimal feasible key at one *cf*."""
    subplans = []
    for component in connected_components(workflow):
        key = minimal_feasible_key(component)
        scheme = BlockScheme(
            key, {attr: cf for attr in key.annotated_attributes()}
        )
        subplans.append(
            (
                component,
                Plan(
                    scheme=scheme,
                    num_reducers=num_reducers,
                    predicted_max_load=0.0,
                    strategy="manual",
                ),
            )
        )
    return QueryPlan(subplans)


def assert_same_run(bucket, loop):
    """Everything the per-block loop reported, the bucket run reports."""
    assert bucket.result == loop.result
    assert bucket.job.response_time == loop.job.response_time
    assert bucket.job.breakdown == loop.job.breakdown
    assert bucket.job.counters == loop.job.counters
    assert bucket.job.reducer_times == loop.job.reducer_times
    assert bucket.calibration.actual_blocks == loop.calibration.actual_blocks
    for counter in ("records", "sorted_records", "basic_rows",
                    "composite_rows"):
        assert getattr(bucket.local_stats, counter) == getattr(
            loop.local_stats, counter
        ), counter


def assert_matches_centralized(result, oracle):
    """Equal to ``evaluate_centralized``'s answer, floats to tolerance."""
    assert_results_match(
        result, {name: table.values for name, table in oracle.items()}
    )


def run_both(workflow, records, config, plan=None):
    bucket = ParallelEvaluator(_cluster(), config).evaluate(
        workflow, records, plan=plan
    )
    loop = PerBlockLoopEvaluator(_cluster(), config).evaluate(
        workflow, records, plan=plan
    )
    return bucket, loop


class TestDifferentialAgainstPerBlockLoop:
    @pytest.mark.parametrize("num_reducers", [1, 3, 8])
    @pytest.mark.parametrize("combined_sort", [False, True])
    @pytest.mark.parametrize("partitioner", ["hash", "round_robin"])
    @pytest.mark.parametrize("early", [False, True])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_setting(
        self, workloads, name, early, partitioner, combined_sort,
        num_reducers,
    ):
        workflow, records, oracle = workloads[name]
        if early and not workflow.supports_early_aggregation():
            pytest.skip("workflow does not support early aggregation")
        config = ExecutionConfig(
            num_reducers=num_reducers,
            early_aggregation=early,
            combined_sort=combined_sort,
            partitioner=partitioner,
        )
        bucket, loop = run_both(workflow, records, config)
        assert_same_run(bucket, loop)
        assert_matches_centralized(bucket.result, oracle)

    @pytest.mark.parametrize("cf", [1, 2, 5])
    @pytest.mark.parametrize("early", [False, True])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_clustering_factor(self, workloads, name, early, cf):
        workflow, records, oracle = workloads[name]
        if early and not workflow.supports_early_aggregation():
            pytest.skip("workflow does not support early aggregation")
        config = ExecutionConfig(num_reducers=3, early_aggregation=early)
        plan = manual_plan(workflow, cf, num_reducers=3)
        bucket, loop = run_both(workflow, records, config, plan=plan)
        assert_same_run(bucket, loop)
        assert_matches_centralized(bucket.result, oracle)

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 15), st.integers(0, 31), st.integers(1, 9)
            ),
            max_size=80,
        ),
        early=st.booleans(),
        num_reducers=st.sampled_from([1, 3, 8]),
    )
    def test_generated_records(
        self, tiny_workflow, records, early, num_reducers
    ):
        config = ExecutionConfig(
            num_reducers=num_reducers, early_aggregation=early
        )
        bucket, loop = run_both(tiny_workflow, records, config)
        assert_same_run(bucket, loop)
        assert bucket.result == evaluate_centralized(tiny_workflow, records)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Counts block evaluations -- what stands in for the reducer's wall
    time in tier-1."""
    return count_block_evaluations(monkeypatch)


class TestStructure:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q6"])
    @pytest.mark.parametrize("num_reducers", [1, 3, 8])
    def test_one_evaluation_per_task_and_component(
        self, workloads, evaluate_calls, name, num_reducers
    ):
        workflow, records, oracle = workloads[name]
        config = ExecutionConfig(num_reducers=num_reducers)
        outcome = ParallelEvaluator(_cluster(), config).evaluate(
            workflow, records
        )
        assert outcome.result == oracle
        components = len(outcome.plan.subplans)
        assert 0 < len(evaluate_calls) <= num_reducers * components
        # The loop this replaced evaluated once per block.
        assert outcome.calibration.actual_blocks > num_reducers * components
        del evaluate_calls[:]
        PerBlockLoopEvaluator(_cluster(), config).evaluate(
            workflow, records
        )
        assert len(evaluate_calls) == outcome.calibration.actual_blocks

    def test_two_components_share_a_bucket(self, tiny_schema, evaluate_calls):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("a", over={"x": "value"}, field="v", aggregate="sum")
        builder.basic("b", over={"t": "tick"}, field="v", aggregate="count")
        workflow = builder.build()
        records = _tiny_records()
        outcome = ParallelEvaluator(
            _cluster(), ExecutionConfig(num_reducers=1)
        ).evaluate(workflow, records)
        assert len(evaluate_calls) == 2
        assert outcome.calibration.actual_blocks == 16 + 32
        assert outcome.result == evaluate_centralized(workflow, records)

    def test_empty_reduce_tasks(self, tiny_workflow, evaluate_calls):
        records = _tiny_records()[:3]
        outcome = ParallelEvaluator(
            _cluster(), ExecutionConfig(num_reducers=32)
        ).evaluate(tiny_workflow, records)
        assert 0 < len(evaluate_calls) <= outcome.calibration.actual_blocks < 32
        assert outcome.job.counters.reduce_tasks == 32
        assert outcome.result == evaluate_centralized(tiny_workflow, records)

    def test_one_span_set_per_task_and_component(self, workloads):
        workflow, records, _oracle = workloads["Q1"]
        tracer = Tracer()
        outcome = ParallelEvaluator(
            _cluster(), ExecutionConfig(num_reducers=3), tracer=tracer
        ).evaluate(workflow, records)
        components = len(outcome.plan.subplans)
        for span_name in ("block-sort", "block-scan", "block-composites"):
            spans = tracer.find(span_name)
            assert 0 < len(spans) <= 3 * components
            assert (
                sum(span.attributes["blocks"] for span in spans)
                == outcome.calibration.actual_blocks
            )


class TestBlockIsolation:
    """The ordinal keeps blocks apart even when they share one bucket."""

    def test_sliding_window_in_one_bucket(
        self, tiny_workflow, tiny_records
    ):
        outcome = ParallelEvaluator(
            _cluster(), ExecutionConfig(num_reducers=1)
        ).evaluate(tiny_workflow, tiny_records)
        assert outcome.calibration.actual_blocks > 1
        assert outcome.result == evaluate_centralized(
            tiny_workflow, tiny_records
        )

    def test_infeasible_key_stays_wrong_in_one_bucket(
        self, tiny_schema, tiny_workflow, tiny_records
    ):
        """The narrow key of ``TestInfeasiblePlansFailLoudly``: with one
        reducer every block's missing fringe sits right there in the
        bucket, and the window must still not see it."""
        narrow = DistributionKey.of(
            tiny_schema, {"x": "four", "t": ("span", 0, 1)}
        )
        plan = Plan(
            scheme=BlockScheme(narrow, {"t": 1}),
            num_reducers=1,
            predicted_max_load=0.0,
            strategy="manual",
        )
        config = ExecutionConfig(num_reducers=1)
        bucket, loop = run_both(
            tiny_workflow, tiny_records, config, plan=plan
        )
        assert_same_run(bucket, loop)
        assert bucket.result != evaluate_centralized(
            tiny_workflow, tiny_records
        )

        class BoundaryBlind(ParallelEvaluator):
            """Hands each component's blocks over as one block."""

            def _make_reducer(self, *args):
                reduce_task = super()._make_reducer(*args)

                def blind(groups, ctx):
                    merged: dict = {}
                    for block_key, values in groups:
                        merged.setdefault(block_key[0], (block_key, []))[
                            1
                        ].extend(values)
                    return reduce_task(list(merged.values()), ctx)

                return blind

        blind = BoundaryBlind(_cluster(), config).evaluate(
            tiny_workflow, tiny_records, plan=plan
        )
        assert blind.result != bucket.result
