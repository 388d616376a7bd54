"""The block-ordinal lifting behind the bucket reducer."""

from repro.local.lifting import (
    BLOCK_ATTRIBUTE,
    bucket_evaluator,
    lift_workflow,
)
from repro.local.sortscan import (
    BlockEvaluator,
    LocalStats,
    _EXHAUSTIVE_LIMIT,
    choose_attribute_order,
)
from repro.workload import all_queries, generate_uniform, paper_schema


class TestLiftWorkflow:
    def test_same_dag_over_a_leading_ordinal(self, tiny_workflow):
        lifted = lift_workflow(tiny_workflow)
        assert lifted.names == tiny_workflow.names
        assert lifted.schema.attribute_names == (
            BLOCK_ATTRIBUTE,
        ) + tiny_workflow.schema.attribute_names
        assert lifted.schema.facts == tiny_workflow.schema.facts
        for measure in tiny_workflow.measures:
            twin = lifted.measure(measure.name)
            # Base level only, present in every granularity.
            assert twin.granularity.levels[0] != "ALL"
            assert twin.granularity.levels[1:] == measure.granularity.levels
            assert twin.aggregate is measure.aggregate
            assert twin.combine is measure.combine
            assert [
                (edge.source.name, edge.relationship, edge.window)
                for edge in twin.inputs
            ] == [
                (edge.source.name, edge.relationship, edge.window)
                for edge in measure.inputs
            ]
            # Edges point at lifted twins, not at the original nodes.
            assert all(
                edge.source is lifted.measure(edge.source.name)
                for edge in twin.inputs
            )

    def test_blocks_evaluate_as_if_alone(self, tiny_workflow, tiny_records):
        """Two blocks through one lifted evaluation equal two separate
        evaluations -- including a sliding window that would otherwise
        reach across the boundary."""
        halves = [tiny_records[:300], tiny_records[300:]]
        tagged = [
            (ordinal,) + record
            for ordinal, half in enumerate(halves)
            for record in half
        ]
        together = bucket_evaluator(tiny_workflow).evaluate(tagged)
        alone = [
            BlockEvaluator(tiny_workflow).evaluate(half) for half in halves
        ]
        for name, table in together.items():
            for ordinal, result in enumerate(alone):
                assert {
                    coords[1:]: value
                    for coords, value in table.items()
                    if coords[0] == ordinal
                } == result[name].values


class TestAttributeOrder:
    def test_unlifted_order_behind_the_ordinal(self):
        """The lifted paper schema has seven attributes, past the
        planner's exhaustive limit; the order must still be the one
        chosen exhaustively on the six real ones."""
        schema = paper_schema(days=2, temporal_base="minute")
        assert len(schema.attributes) + 1 > _EXHAUSTIVE_LIMIT
        for workflow in all_queries(schema).values():
            order = choose_attribute_order(workflow)
            evaluator = bucket_evaluator(workflow)
            assert evaluator.attribute_order == (0,) + tuple(
                index + 1 for index in order
            )

    def test_contiguous_measures_stay_contiguous(self):
        schema = paper_schema(days=2, temporal_base="minute")
        records = generate_uniform(schema, 50, seed=3)
        for workflow in all_queries(schema).values():
            plain, lifted = LocalStats(), LocalStats()
            BlockEvaluator(workflow).evaluate(records, stats=plain)
            bucket_evaluator(workflow).evaluate(
                [(0,) + record for record in records], stats=lifted
            )
            assert lifted.contiguous_measures == plain.contiguous_measures
            assert lifted.hashed_measures == plain.hashed_measures
