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

Both parallel backends reduce this way, through one helper,
:func:`evaluate_bucket`: a bucket's rows arrive block-major as one
:class:`~repro.cube.batches.RecordBatch` (the simulated engine's
columnar shuffle, the process backend's shared-memory bucket), which
gains the ordinal as its leading column (:func:`lift_batch`) and goes
to the lifted vectorized evaluator, or as per-block lists of records,
tagged ``(ordinal,) + record``, or of early-aggregation partial
states, merged into lifted basic tables, for its scalar half.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro import kernels
from repro.cube.batches import Column, RecordBatch
from repro.cube.domains import UniformHierarchy
from repro.cube.records import Attribute, Schema
from repro.cube.regions import Granularity
from repro.local.measure_table import ResultSet
from repro.local.sortscan import choose_attribute_order
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


def lifted_attribute_order(workflow: Workflow) -> tuple[int, ...]:
    """The unlifted workflow's attribute order behind the ordinal.

    Chosen on the unlifted workflow -- the lifted schema may pass the
    planner's exhaustive-search limit and would otherwise silently fall
    to the greedy order -- so each block is sorted and scanned exactly
    as it would be alone.
    """
    order = choose_attribute_order(workflow)
    return (0,) + tuple(index + 1 for index in order)


def vectorized_bucket_evaluator(
    workflow: Workflow, tracer=None
) -> VectorizedBlockEvaluator:
    """A :class:`VectorizedBlockEvaluator` over whole buckets of
    *workflow* blocks.  It and its scalar half sort each block exactly
    as the unlifted workflow would be sorted alone, behind the
    ordinal.  The lifted workflow and its attribute order are computed
    once per workflow (:attr:`Workflow.lifted`); only the evaluator,
    which holds *tracer*, is built per call."""
    lifted, attribute_order = workflow.lifted
    return VectorizedBlockEvaluator(
        lifted, attribute_order=attribute_order, tracer=tracer
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
    result,
    filters: Optional[Mapping[str, Callable]],
    block_key: Callable[[int], tuple],
    num_blocks: int,
    outputs: list,
) -> list[int]:
    """Append a lifted bucket result to *outputs* as block results.

    *result* is what :meth:`VectorizedBlockEvaluator.evaluate_columns`
    returns: one :class:`~repro.local.columnar.ColumnTable` per measure,
    or a :class:`ResultSet` from the scalar half.  Each measure becomes
    one ``(measure, regions, values)`` chunk whose regions lost their
    leading ordinal: an int matrix and a values array from the arrays,
    lists of region tuples and values from the scalar half (see
    :func:`output_rows`).  *filters* maps measure names to
    :meth:`~repro.distribution.clustering.BlockScheme.make_result_filter`
    filters, or is ``None`` for a key with no annotated component,
    under which every block owns all it computes.  Otherwise a row
    survives only inside its block's owned region range; *block_key*
    (ordinal -> the block's key without its component index) names the
    blocks.  On arrays, the ownership test is one mask per measure.

    Returns each block's output row count before the ownership filter.
    """
    if isinstance(result, ResultSet):
        return _unlift_tables(result, filters, block_key, num_blocks, outputs)
    rows = np.zeros(num_blocks, dtype=np.int64)
    block_keys = None
    # Measures with equal coordinates and equal ownership masks share
    # one region matrix, so the union builds their tuples once.
    shared: list[tuple[np.ndarray, Optional[np.ndarray], np.ndarray]] = []
    for name, table in result.items():
        coords = table.coords
        ordinals = coords[:, 0]
        rows += np.bincount(ordinals, minlength=num_blocks)
        keep = None
        if filters is not None and len(ordinals):
            if block_keys is None:
                block_keys = [block_key(ordinal) for ordinal in range(num_blocks)]
            keep = filters[name].mask(block_keys, ordinals, coords[:, 1:])
            if keep.all():
                keep = None
        for seen, seen_keep, regions in shared:
            if _same(seen, coords) and _same(seen_keep, keep):
                break
        else:
            regions = coords[:, 1:] if keep is None else coords[keep, 1:]
            shared.append((coords, keep, regions))
        values = table.values if keep is None else table.values[keep]
        outputs.append((name, regions, values))
    return rows.tolist()


def _same(first: Optional[np.ndarray], second: Optional[np.ndarray]) -> bool:
    """Whether two optional arrays are equal; ``None`` equals only itself."""
    return first is second or (
        first is not None
        and second is not None
        and np.array_equal(first, second)
    )


def _unlift_tables(
    result: ResultSet,
    filters: Optional[Mapping[str, Callable]],
    block_key: Callable[[int], tuple],
    num_blocks: int,
    outputs: list,
) -> list[int]:
    """:func:`unlift_outputs` for the scalar half's dict tables."""
    rows = [0] * num_blocks
    regions: dict = {}
    for name, table in result.items():
        filter_for = None if filters is None else filters[name]
        keeps: dict = {}
        kept_regions: list = []
        kept_values: list = []
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
            kept_regions.append(region)
            kept_values.append(value)
        outputs.append((name, kept_regions, kept_values))
    return rows


def output_rows(chunks) -> int:
    """How many ``(measure, region, value)`` rows *chunks* stand for.

    A chunk is ``(measure, regions, values)``: an int region matrix and
    a values array, or a list of region tuples and a list of values,
    one row per entry."""
    return sum(len(values) for _name, _regions, values in chunks)


def evaluate_bucket(
    evaluators: Sequence[VectorizedBlockEvaluator],
    filters: Sequence[Optional[Mapping[str, Callable]]],
    keys: Sequence[tuple],
    sizes: Sequence[int],
    rows,
    outputs: list,
    *,
    indices: Optional[np.ndarray] = None,
    stats=None,
    check: Optional[Callable[[], None]] = None,
    basic_tables: Optional[Callable[[int, list], Mapping]] = None,
) -> list[tuple[int, list[int], list[int]]]:
    """Evaluate one reducer bucket, one lifted call per component.

    The bucket's blocks are *keys* (full block keys, component index
    first) holding *sizes* rows each.  *rows* holds those rows
    block-major: a :class:`~repro.cube.batches.RecordBatch` (entry
    ``i`` is its row ``indices[i]``, or row ``i`` without *indices*),
    which gains the ordinal column and goes to the vectorized
    evaluator, or one record list per block, whose records are tagged
    ``(ordinal,) + record`` for the evaluator's scalar half.  With
    *basic_tables*, the lists hold partial states instead, and
    ``basic_tables(c, lists)`` turns component ``c``'s lists into its
    lifted basic tables for the scalar half.  Components run in
    ascending index order through ``evaluators[c]`` (as built by
    :func:`vectorized_bucket_evaluator`), their results unlifted into
    *outputs*, one chunk per measure, through ``filters[c]`` (see
    :func:`unlift_outputs`);
    *check* runs before each component and may raise to stop the
    bucket, and *stats* collects the local work counters.

    Returns one ``(component, block positions in keys, rows produced
    per block)`` triple per component, in evaluation order.
    """
    by_component: dict[int, list[int]] = {}
    for position, key in enumerate(keys):
        by_component.setdefault(key[0], []).append(position)
    batched = isinstance(rows, RecordBatch)
    if batched:
        sizes = np.asarray(sizes, dtype=np.int64)
    done = []
    for component_index in sorted(by_component):
        if check is not None:
            check()
        positions = by_component[component_index]
        evaluator = evaluators[component_index]
        if batched:
            counts = sizes[positions]
            selected = indices
            if len(positions) < len(keys):
                selected = kernels.take_blocks(sizes, positions)
                if indices is not None:
                    selected = indices[selected]
            result = evaluator.evaluate_columns(
                lift_batch(
                    evaluator.workflow.schema,
                    np.repeat(
                        np.arange(len(positions), dtype=np.int64), counts
                    ),
                    rows if selected is None else rows.take(selected),
                ),
                stats=stats,
                blocks=len(positions),
            )
        elif basic_tables is not None:
            result = evaluator.scalar.evaluate(
                basic_tables=basic_tables(
                    component_index, [rows[position] for position in positions]
                ),
                stats=stats,
                blocks=len(positions),
            )
        else:
            result = evaluator.scalar.evaluate(
                [
                    (ordinal,) + record
                    for ordinal, position in enumerate(positions)
                    for record in rows[position]
                ],
                stats=stats,
                blocks=len(positions),
            )
        produced = unlift_outputs(
            result,
            filters[component_index],
            lambda ordinal: keys[positions[ordinal]][1:],
            len(positions),
            outputs,
        )
        done.append((component_index, positions, produced))
    return done
