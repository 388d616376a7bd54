"""Tests for the single-pass sort/scan block evaluator."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cube.regions import Granularity
from repro.local.sortscan import (
    BlockEvaluator,
    LocalStats,
    choose_attribute_order,
    evaluate_centralized,
    is_prefix_compatible,
    make_sort_key,
)
from repro.query.builder import WorkflowBuilder
from repro.query.measures import WorkflowError
from repro.workload import paper_schema

from tests.helpers import assert_results_match, reference_evaluate


def grain(schema, **levels):
    return Granularity.of(schema, levels)


class TestPrefixCompatibility:
    def test_full_chain_prefix(self, tiny_schema):
        g = grain(tiny_schema, x="value", t="span")
        assert is_prefix_compatible(g, (0, 1))

    def test_partial_then_all(self, tiny_schema):
        g = grain(tiny_schema, x="four")
        assert is_prefix_compatible(g, (0, 1))

    def test_partial_must_be_last_non_all(self, tiny_schema):
        g = grain(tiny_schema, x="four", t="tick")
        # x partial before t non-ALL: not contiguous under (x, t).
        assert not is_prefix_compatible(g, (0, 1))
        # Under (t, x): t full chain then x partial: contiguous.
        assert is_prefix_compatible(g, (1, 0))

    def test_all_before_non_all_breaks(self, tiny_schema):
        g = grain(tiny_schema, t="tick")
        assert not is_prefix_compatible(g, (1, 0)) or True
        assert is_prefix_compatible(g, (1, 0))
        assert not is_prefix_compatible(g, (0, 1)) is False or True
        # x=ALL first in order (0,1) means later non-ALL t fails.
        assert not is_prefix_compatible(g, (0, 1))


def _scalar_order(workflow):
    """The per-permutation search the array expression replaces."""
    granularities = [m.granularity for m in workflow.basic_measures()]
    return max(
        permutations(range(len(workflow.schema.attributes))),
        key=lambda order: sum(
            is_prefix_compatible(g, order) for g in granularities
        ),
    )


@st.composite
def basic_grains(draw):
    """1-8 basic measures over the paper's six attributes, each at a
    drawn level (base, partial or ``ALL``)."""
    schema = paper_schema(days=2, temporal_base="minute")
    builder = WorkflowBuilder(schema)
    for index in range(draw(st.integers(1, 8))):
        builder.basic(
            f"m{index}",
            over={
                attribute.name: draw(
                    st.sampled_from(
                        [level.name for level in attribute.hierarchy.levels]
                    )
                )
                for attribute in schema.attributes
            },
            field="a2",
            aggregate="sum",
        )
    return builder.build()


class TestAttributeOrder:
    @settings(max_examples=300, deadline=None)
    @given(basic_grains())
    def test_matches_the_scalar_search(self, workflow):
        """Same tuple as scoring every permutation one by one, ties
        included."""
        assert choose_attribute_order(workflow) == _scalar_order(workflow)

    def test_prefers_order_covering_basics(self, tiny_schema):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "a", over={"t": "tick"}, field="v", aggregate="sum"
        )
        builder.basic(
            "b", over={"t": "span"}, field="v", aggregate="sum"
        )
        workflow = builder.build()
        order = choose_attribute_order(workflow)
        assert all(
            is_prefix_compatible(m.granularity, order)
            for m in workflow.basic_measures()
        )

    def test_sort_key_groups_contiguously(self, tiny_schema, tiny_records):
        order = (1, 0)
        key = make_sort_key(tiny_schema, order)
        ordered = sorted(tiny_records, key=key)
        g = grain(tiny_schema, t="span")
        seen = set()
        current = None
        for record in ordered:
            coords = g.coordinates_of(record)
            if coords != current:
                assert coords not in seen, "group split in sorted order"
                seen.add(coords)
                current = coords


class TestEvaluation:
    def test_matches_reference_on_tiny_workflow(
        self, tiny_workflow, tiny_records
    ):
        result = evaluate_centralized(tiny_workflow, tiny_records)
        assert_results_match(
            result, reference_evaluate(tiny_workflow, tiny_records)
        )

    def test_matches_reference_on_weblog(self, weblog):
        _schema, workflow, records = weblog
        result = evaluate_centralized(workflow, records)
        assert_results_match(result, reference_evaluate(workflow, records))

    def test_stats_are_collected(self, tiny_workflow, tiny_records):
        stats = LocalStats()
        evaluate_centralized(tiny_workflow, tiny_records, stats=stats)
        assert stats.records == len(tiny_records)
        assert stats.sorted_records == len(tiny_records)
        assert stats.basic_rows > 0
        assert stats.composite_rows > 0
        assert stats.contiguous_measures + stats.hashed_measures == 2

    def test_multiple_blocks_reuse_evaluator(self, tiny_workflow, tiny_records):
        evaluator = BlockEvaluator(tiny_workflow)
        half = len(tiny_records) // 2
        first = evaluator.evaluate(tiny_records[:half])
        second = evaluator.evaluate(tiny_records[half:])
        assert first.total_rows() > 0
        assert second.total_rows() > 0

    def test_requires_input(self, tiny_workflow):
        with pytest.raises(WorkflowError, match="records or basic_tables"):
            BlockEvaluator(tiny_workflow).evaluate()

    def test_empty_block(self, tiny_workflow):
        result = BlockEvaluator(tiny_workflow).evaluate([])
        assert result.total_rows() == 0

    def test_basic_tables_path(self, tiny_workflow, tiny_records):
        evaluator = BlockEvaluator(tiny_workflow)
        from_records = evaluator.evaluate(tiny_records)
        basic_tables = {
            m.name: from_records[m.name]
            for m in tiny_workflow.basic_measures()
        }
        from_tables = evaluator.evaluate(basic_tables=basic_tables)
        assert from_tables == from_records

    def test_basic_tables_must_be_complete(self, tiny_workflow):
        with pytest.raises(WorkflowError, match="missing"):
            BlockEvaluator(tiny_workflow).evaluate(basic_tables={})


class TestAllAlignMeasures:
    @pytest.fixture(scope="class")
    def workflow(self, tiny_schema):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "coarse", over={"x": "four"}, field="v", aggregate="sum"
        )
        (
            builder.composite("spread", over={"x": "value"})
            .from_parent("coarse")
        )
        return builder.build()

    def test_anchored_by_records(self, workflow, tiny_records):
        result = evaluate_centralized(workflow, tiny_records)
        assert_results_match(result, reference_evaluate(workflow, tiny_records))

    def test_anchored_by_finer_table_when_no_records(
        self, tiny_schema, tiny_records
    ):
        # Build a variant whose basic table is finer than the target, so
        # the evaluator can anchor from it in the tables-only path.
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "fine", over={"x": "value", "t": "tick"}, field="v",
            aggregate="sum",
        )
        builder.basic("top", over={"x": "four"}, field="v", aggregate="sum")
        (
            builder.composite("spread", over={"x": "value", "t": "tick"})
            .from_parent("top")
        )
        workflow = builder.build()
        evaluator = BlockEvaluator(workflow)
        reference = evaluator.evaluate(tiny_records)
        tables = {
            m.name: reference[m.name] for m in workflow.basic_measures()
        }
        result = evaluator.evaluate(basic_tables=tables)
        assert result == reference


@settings(deadline=None, max_examples=30)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 15), st.integers(0, 31), st.integers(1, 9)
        ),
        min_size=1,
        max_size=80,
    ),
    window_low=st.integers(-4, 0),
)
def test_random_data_matches_reference(tiny_workflow, records, window_low):
    """Property: sort/scan equals the brute-force reference on any bag."""
    result = evaluate_centralized(tiny_workflow, records)
    assert_results_match(result, reference_evaluate(tiny_workflow, records))
