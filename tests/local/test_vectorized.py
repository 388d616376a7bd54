"""Tests for the NumPy-accelerated evaluator."""

from hypothesis import given, settings, strategies as st

from repro.local.sortscan import evaluate_centralized
from repro.local.vectorized import (
    VectorizedBlockEvaluator,
    evaluate_vectorized,
    vectorized_supports,
)
from repro.query.builder import WorkflowBuilder


class TestSupportDetection:
    def test_supported_workflow(self, tiny_workflow):
        assert vectorized_supports(tiny_workflow)
        assert VectorizedBlockEvaluator(tiny_workflow).accelerated

    def test_unsupported_aggregate_falls_back(self, tiny_schema):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "spread", over={"x": "four"}, field="v", aggregate="variance"
        )
        workflow = builder.build()
        assert not vectorized_supports(workflow)
        assert not VectorizedBlockEvaluator(workflow).accelerated

    def test_holistic_aggregates_are_supported(self, weblog):
        _schema, workflow, _records = weblog  # medians
        assert vectorized_supports(workflow)
        assert VectorizedBlockEvaluator(workflow).accelerated


class TestEquality:
    def test_matches_scalar_on_tiny_workflow(self, tiny_workflow,
                                             tiny_records):
        assert evaluate_vectorized(
            tiny_workflow, tiny_records
        ) == evaluate_centralized(tiny_workflow, tiny_records)

    def test_fallback_matches_scalar(self, weblog):
        _schema, workflow, records = weblog
        assert evaluate_vectorized(workflow, records) == (
            evaluate_centralized(workflow, records)
        )

    def test_nominal_hierarchy_lookup_table(self, weblog):
        schema, _wf, records = weblog
        builder = WorkflowBuilder(schema)
        builder.basic(
            "per_group", over={"keyword": "group", "time": "hour"},
            field="page_count", aggregate="sum",
        )
        workflow = builder.build()
        assert evaluate_vectorized(workflow, records) == (
            evaluate_centralized(workflow, records)
        )

    def test_pure_align_measure(self, tiny_schema, tiny_records):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("coarse", over={"x": "four"}, field="v",
                      aggregate="sum")
        builder.composite("spread", over={"x": "value"}).from_parent(
            "coarse"
        )
        workflow = builder.build()
        assert evaluate_vectorized(workflow, tiny_records) == (
            evaluate_centralized(workflow, tiny_records)
        )

    def test_empty_block(self, tiny_workflow):
        result = evaluate_vectorized(tiny_workflow, [])
        assert result.total_rows() == 0

    @settings(deadline=None, max_examples=25)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 15), st.integers(0, 31), st.integers(0, 50)
            ),
            min_size=1,
            max_size=120,
        ),
        name=st.sampled_from(["sum", "count", "min", "max", "avg"]),
    )
    def test_every_vectorized_aggregate(self, tiny_schema, records, name):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "m", over={"x": "value", "t": "span"}, field="v", aggregate=name
        )
        (
            builder.composite("rolled", over={"x": "four"})
            .from_children("m", aggregate="max")
        )
        workflow = builder.build()
        assert evaluate_vectorized(workflow, records) == (
            evaluate_centralized(workflow, records)
        )


class TestStats:
    def test_record_counting(self, tiny_workflow, tiny_records):
        from repro.local.sortscan import BlockEvaluator, LocalStats

        stats = LocalStats()
        evaluate_vectorized(tiny_workflow, tiny_records, stats=stats)
        assert stats.records == len(tiny_records)
        assert stats.basic_rows > 0
        assert stats.composite_rows > 0
        # Every counter, sort and scan split included, is what the
        # scalar evaluator reports for the same block.
        scalar = LocalStats()
        BlockEvaluator(tiny_workflow).evaluate(tiny_records, stats=scalar)
        assert stats == scalar
        assert stats.sorted_records == len(tiny_records)
        assert stats.contiguous_measures + stats.hashed_measures == 2

    def test_spans_match_the_scalar_evaluator(
        self, tiny_schema, tiny_workflow, tiny_records
    ):
        from repro.cube.batches import RecordBatch
        from repro.local.sortscan import BlockEvaluator
        from repro.obs import Tracer

        vectorized, scalar = Tracer(), Tracer()
        VectorizedBlockEvaluator(tiny_workflow, tracer=vectorized).evaluate(
            RecordBatch.from_records(tiny_schema, tiny_records), blocks=3
        )
        BlockEvaluator(tiny_workflow, tracer=scalar).evaluate(
            tiny_records, blocks=3
        )
        for name in ("block-sort", "block-scan", "block-composites"):
            assert [span.attributes for span in vectorized.find(name)] == [
                span.attributes for span in scalar.find(name)
            ], name


class TestFloatFacts:
    def test_float_values_fall_back_instead_of_truncating(self, tiny_schema):
        """Float facts must not be silently cast to int64."""
        from repro.query.builder import WorkflowBuilder

        builder = WorkflowBuilder(tiny_schema)
        builder.basic("m", over={"x": "value"}, field="v", aggregate="sum")
        workflow = builder.build()
        records = [(0, 0, 0.5), (0, 1, 0.25), (1, 0, 1.5)]
        result = evaluate_vectorized(workflow, records)
        assert result == evaluate_centralized(workflow, records)
        assert result["m"][(0, 0)] == 0.75


class TestOverflowGuard:
    def test_huge_ints_fall_back_to_exact_path(self, tiny_schema):
        from repro.query.builder import WorkflowBuilder

        builder = WorkflowBuilder(tiny_schema)
        builder.basic("m", over={"x": "value"}, field="v", aggregate="sum")
        workflow = builder.build()
        records = [(0, 0, 2**62), (0, 1, 2**62), (0, 2, 2**62)]
        result = evaluate_vectorized(workflow, records)
        assert result["m"][(0, 0)] == 3 * 2**62  # no int64 wraparound
        assert result == evaluate_centralized(workflow, records)
