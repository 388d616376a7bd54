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
back each block's own result (:func:`unlift_outputs`).

Both parallel backends reduce this way: the simulated engine's reduce
hook over tagged record tuples or merged partial states, the process
backend's worker tasks over tagged records or a lifted
:class:`~repro.cube.batches.RecordBatch` (:func:`lift_batch`).
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Optional

import numpy as np

from repro.cube.batches import Column, RecordBatch
from repro.cube.domains import UniformHierarchy
from repro.cube.records import Attribute, Schema
from repro.cube.regions import Granularity
from repro.local.measure_table import ResultSet
from repro.local.sortscan import BlockEvaluator, choose_attribute_order
from repro.local.vectorized import VectorizedBlockEvaluator
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


def _lifted_attribute_order(workflow: Workflow) -> tuple[int, ...]:
    """The unlifted workflow's attribute order behind the ordinal.

    Chosen on the unlifted workflow -- the lifted schema may pass the
    planner's exhaustive-search limit and would otherwise silently fall
    to the greedy order -- so each block is sorted and scanned exactly
    as it would be alone.
    """
    order = choose_attribute_order(workflow)
    return (0,) + tuple(index + 1 for index in order)


def bucket_evaluator(workflow: Workflow, tracer=None) -> BlockEvaluator:
    """A :class:`BlockEvaluator` over whole buckets of *workflow* blocks."""
    return BlockEvaluator(
        lift_workflow(workflow),
        tracer=tracer,
        attribute_order=_lifted_attribute_order(workflow),
    )


def vectorized_bucket_evaluator(
    workflow: Workflow,
) -> VectorizedBlockEvaluator:
    """A :class:`VectorizedBlockEvaluator` over whole buckets of
    *workflow* blocks; its scalar half is :func:`bucket_evaluator`'s
    evaluator, ordered the same way."""
    return VectorizedBlockEvaluator(
        lift_workflow(workflow),
        attribute_order=_lifted_attribute_order(workflow),
    )


def lift_batch(
    schema: Schema, ordinals: np.ndarray, batch: RecordBatch
) -> RecordBatch:
    """*batch* over the lifted *schema*, *ordinals* its leading column.

    An int plane stays one int64 matrix; a typed batch keeps its
    :class:`~repro.cube.batches.Column`\\ s behind a plain-int one.
    """
    if batch.columns is None:
        return RecordBatch(schema, np.column_stack((ordinals, batch.matrix)))
    return RecordBatch(
        schema, (Column(ordinals),) + batch.columns, length=len(batch)
    )


def unlift_outputs(
    result: ResultSet,
    filters: Optional[Mapping[str, Callable]],
    block_key: Callable[[int], tuple],
    num_blocks: int,
    outputs: list,
) -> list[int]:
    """Append a lifted bucket result to *outputs* as block results.

    Each ``(measure, region, value)`` row loses its leading ordinal;
    measures of one granularity share the stripped region tuples, as
    unlifted tables do.  *filters* maps measure names to
    :meth:`~repro.distribution.clustering.BlockScheme.make_result_filter`
    functions, or is ``None`` for a key with no annotated component,
    under which every block owns all it computes.  Otherwise a row
    survives only inside its block's owned region range: one filter is
    built per (measure, block) that has rows, and *block_key* (ordinal
    -> the block's key without its component index) is asked only for
    those blocks.

    Returns each block's output row count before the ownership filter.
    """
    rows = [0] * num_blocks
    regions: dict = {}
    for name, table in result.items():
        filter_for = None if filters is None else filters[name]
        keeps: dict = {}
        for coords, value in table.items():
            ordinal = coords[0]
            rows[ordinal] += 1
            region = regions.get(coords)
            if region is None:
                region = regions[coords] = coords[1:]
            if filter_for is not None:
                keep = keeps.get(ordinal)
                if keep is None:
                    keep = keeps[ordinal] = filter_for(block_key(ordinal))
                if not keep(region):
                    continue
            outputs.append((name, region, value))
    return rows
