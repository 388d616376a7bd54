"""Lifting a workflow onto a schema with a leading block ordinal.

A reducer bucket holds many distribution blocks of one component, and
the paper's reducer sorts it once on a composite (distribution key +
local sort key) and scans it once (Section III-D).  The lifted workflow
makes the existing evaluator do exactly that: every measure's
granularity gains one synthetic leading attribute, ``__block__``, at its
only (base) level, and every record or partial-state coordinate is
tagged with its block's ordinal within the bucket.  The ordinal is then
a coordinate of every region, so roll-ups, alignments, sibling windows,
hashed measures and pure-ALIGN anchors cannot cross a block; it leads
the sort key, so contiguous scan state resets at block boundaries by
construction.  Stripping the leading coordinate from the output gives
back each block's own result.
"""

from __future__ import annotations

import sys

from repro.cube.domains import UniformHierarchy
from repro.cube.records import Attribute, Schema
from repro.cube.regions import Granularity
from repro.local.sortscan import BlockEvaluator, choose_attribute_order
from repro.query.measures import Edge, Measure
from repro.query.workflow import Workflow

#: Name of the synthetic leading attribute holding the block ordinal.
BLOCK_ATTRIBUTE = "__block__"

_ORDINAL = "ordinal"

# One shared attribute: ordinals mean the same thing in every lifted
# schema, and a bucket never holds anywhere near ``sys.maxsize`` blocks.
_BLOCKS = Attribute(
    BLOCK_ATTRIBUTE,
    UniformHierarchy(
        BLOCK_ATTRIBUTE, {_ORDINAL: 1}, base_cardinality=sys.maxsize
    ),
)


def lift_workflow(workflow: Workflow) -> Workflow:
    """The same measure DAG over ``(__block__,) + workflow.schema``.

    Measures keep their names, aggregates, windows and expressions; only
    the granularities (and hence record slots, which shift by one) move
    to the lifted schema.
    """
    schema = Schema(
        (_BLOCKS,) + workflow.schema.attributes, workflow.schema.facts
    )
    lifted: dict[str, Measure] = {}
    for measure in workflow.topological_order():
        lifted[measure.name] = Measure(
            measure.name,
            Granularity(schema, (_ORDINAL,) + measure.granularity.levels),
            field=measure.field,
            aggregate=measure.aggregate,
            inputs=tuple(
                Edge(
                    lifted[edge.source.name],
                    edge.relationship,
                    edge.window,
                    edge.aggregate,
                )
                for edge in measure.inputs
            ),
            combine=measure.combine,
        )
    return Workflow(schema, [lifted[m.name] for m in workflow.measures])


def bucket_evaluator(workflow: Workflow, tracer=None) -> BlockEvaluator:
    """A :class:`BlockEvaluator` over whole buckets of *workflow* blocks.

    The attribute order is chosen on the unlifted workflow -- the lifted
    schema may pass the planner's exhaustive-search limit and would
    otherwise silently fall to the greedy order -- and the ordinal is
    prepended, so each block is sorted and scanned exactly as it would
    be alone.
    """
    order = choose_attribute_order(workflow)
    return BlockEvaluator(
        lift_workflow(workflow),
        tracer=tracer,
        attribute_order=(0,) + tuple(index + 1 for index in order),
    )
