"""The local sort/scan evaluator (VLDB'06 algorithm, reimplemented).

Evaluates a whole aggregation workflow over one block of records using a
single sort followed by a single scan for the basic measures, then one
pass per composite measure over the (much smaller) measure tables.

The sort order is chosen so that as many basic-measure granularities as
possible are *prefix-compatible* with it: their region groups are then
contiguous in the sorted stream and can be aggregated with O(1) state
(boundary flushing).  Remaining basic measures are aggregated with hash
tables in the same scan, so the pass count never grows.

This evaluator doubles as the paper's centralized baseline
(:func:`evaluate_centralized`) and as the scalar half of the evaluator
every reducer of the parallel algorithm runs once per bucket of blocks
over a lifted workflow (:mod:`repro.local.lifting`): it evaluates a
bucket whenever the vectorized path cannot be exact, and one composite
measure whenever the columnar operators cannot
(:mod:`repro.local.columnar`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cube.domains import ALL
from repro.cube.records import Record
from repro.cube.regions import Granularity
from repro.obs.tracer import NULL_TRACER
from repro.query.measures import Measure, Relationship, WorkflowError
from repro.query.workflow import Workflow
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.operators import align_candidates, rollup, sibling_window

#: Attribute counts up to which the sort-order planner searches
#: exhaustively; beyond this it falls back to a greedy order.
_EXHAUSTIVE_LIMIT = 6


@dataclass
class LocalStats:
    """Work counters from one block evaluation (feeds the timing model)."""

    records: int = 0
    sorted_records: int = 0
    contiguous_measures: int = 0
    hashed_measures: int = 0
    basic_rows: int = 0
    composite_rows: int = 0

    def merge(self, other: "LocalStats") -> None:
        self.records += other.records
        self.sorted_records += other.sorted_records
        self.contiguous_measures += other.contiguous_measures
        self.hashed_measures += other.hashed_measures
        self.basic_rows += other.basic_rows
        self.composite_rows += other.composite_rows

    @property
    def output_rows(self) -> int:
        return self.basic_rows + self.composite_rows


def is_prefix_compatible(
    granularity: Granularity, attribute_order: Sequence[int]
) -> bool:
    """Whether the granularity's groups are contiguous under the order.

    True iff, walking attributes in *attribute_order*, the levels form a
    run of base levels, then at most one intermediate level, then only
    ``ALL`` -- the classic group-by prefix condition.
    """
    schema = granularity.schema
    saw_partial = False
    saw_all = False
    for index in attribute_order:
        level_name = granularity.levels[index]
        hierarchy = schema.attributes[index].hierarchy
        if level_name == ALL:
            saw_all = True
            continue
        if saw_all:
            return False
        if saw_partial:
            return False
        if hierarchy.level(level_name).depth != 0:
            saw_partial = True
    return True


@lru_cache(maxsize=None)
def _all_orders(width: int) -> np.ndarray:
    """Every permutation of ``range(width)``, one per row, in
    :func:`itertools.permutations` order."""
    orders = list(permutations(range(width)))
    return np.array(orders, dtype=np.intp).reshape(len(orders), width)


def _level_classes(granularity: Granularity) -> list[int]:
    """Per attribute: 0 at the base level, 2 at ``ALL``, 1 in between."""
    classes = []
    for attribute, level_name in zip(
        granularity.schema.attributes, granularity.levels
    ):
        if level_name == ALL:
            classes.append(2)
        else:
            depth = attribute.hierarchy.level(level_name).depth
            classes.append(0 if depth == 0 else 1)
    return classes


def choose_attribute_order(workflow: Workflow) -> tuple[int, ...]:
    """Pick the sort order maximizing prefix-compatible basic measures.

    Searches all permutations for schemas of up to ``6`` attributes
    (constant for OLAP-style schemas), otherwise orders attributes by how
    many basic measures use them at a non-``ALL`` level.  The search is
    one array expression: a granularity is prefix-compatible with an
    order (:func:`is_prefix_compatible`) exactly when its level classes
    (:func:`_level_classes`) never decrease along the order and hold at
    most one partial level.  Ties go to the first order in
    :func:`itertools.permutations` order.
    """
    schema = workflow.schema
    indices = tuple(range(len(schema.attributes)))
    granularities = [m.granularity for m in workflow.basic_measures()]
    if not granularities:
        return indices

    if len(indices) <= _EXHAUSTIVE_LIMIT:
        orders = _all_orders(len(indices))
        classes = np.array(
            [_level_classes(g) for g in granularities], dtype=np.int8
        )
        walked = classes[:, orders]  # (granularity, order, position)
        compatible = (np.diff(walked, axis=2) >= 0).all(axis=2) & (
            (walked == 1).sum(axis=2) <= 1
        )
        best = orders[compatible.sum(axis=0).argmax()]
        return tuple(int(index) for index in best)

    usage = [
        sum(1 for g in granularities if g.levels[i] != ALL) for i in indices
    ]
    return tuple(sorted(indices, key=lambda i: -usage[i]))


def make_sort_key(schema, attribute_order: Sequence[int]):
    """Build ``record -> sortable tuple`` for the chosen attribute order.

    Uniform hierarchies map monotonically, so the base value alone orders
    every level; nominal attributes contribute their full level chain
    (coarsest first) so that coarse groups stay contiguous too.
    """
    extractors = []
    for index in attribute_order:
        hierarchy = schema.attributes[index].hierarchy
        if hierarchy.supports_ranges:
            extractors.append((index, None))
        else:
            chain = tuple(
                hierarchy.base_mapper(level.name)
                for level in reversed(hierarchy.levels)
                if not level.is_all
            )
            extractors.append((index, chain))

    def sort_key(record: Record):
        parts = []
        for index, chain in extractors:
            value = record[index]
            if chain is None:
                parts.append(value)
            else:
                parts.extend(step(value) for step in chain)
        return tuple(parts)

    return sort_key


def compute_composite(
    measure: Measure,
    tables: Mapping[str, MeasureTable],
    fallback_coords=None,
    candidates=None,
) -> MeasureTable:
    """Evaluate one composite measure from its sources' tables.

    Applies each edge's relationship operator (rollup, sibling window,
    parent alignment or self), intersects the edges' candidate regions,
    and combines the per-edge values with the measure's expression.
    Shared by the block evaluator and by the naive per-measure jobs.

    *fallback_coords* anchors measures whose edges are all ALIGN (no
    edge constrains the candidate set).  *candidates*, when given,
    overrides candidate selection entirely: only those coordinates are
    evaluated.  Incremental maintenance uses it to re-derive just the
    anchors whose sources changed.
    """
    edge_results: list[tuple[MeasureTable, bool]] = []
    for edge in measure.inputs:
        source_table = tables[edge.source.name]
        if edge.relationship is Relationship.SELF:
            edge_results.append((source_table, False))
        elif edge.relationship is Relationship.ROLLUP:
            edge_results.append(
                (
                    rollup(source_table, measure.granularity, edge.aggregate),
                    False,
                )
            )
        elif edge.relationship is Relationship.SIBLING:
            edge_results.append(
                (
                    sibling_window(source_table, edge.window, edge.aggregate),
                    False,
                )
            )
        else:  # ALIGN
            edge_results.append((source_table, True))

    if candidates is None:
        candidates = align_candidates(
            measure.granularity, edge_results, fallback_coords
        )
    if candidates is None:
        raise WorkflowError(
            f"measure {measure.name!r} has only parent/child edges and "
            "no raw records are available to anchor its regions"
        )

    combine = measure.effective_combine
    result = MeasureTable(measure.granularity)
    target = measure.granularity
    # Levels are resolved once per ALIGN edge, not once per candidate.
    lookups = [
        (table, target.coords_mapper(table.granularity) if is_align else None)
        for table, is_align in edge_results
    ]
    for coords in candidates:
        values = []
        missing = False
        for table, to_parent in lookups:
            if to_parent is None:
                value = table.get(coords)
            else:
                value = table.get(to_parent(coords))
            if value is None:
                missing = True
                break
            values.append(value)
        if not missing:
            result[coords] = combine(*values)
    return result


class BlockEvaluator:
    """Evaluates one workflow over blocks of records.

    Construct once per workflow; :meth:`evaluate` may be called many
    times (once per block).  The attribute order and coordinate mappers
    are resolved up front; *attribute_order* overrides the planner's
    choice (:func:`repro.local.lifting.vectorized_bucket_evaluator`
    keeps the unlifted workflow's order behind the block ordinal).
    """

    def __init__(
        self,
        workflow: Workflow,
        tracer=None,
        attribute_order: Sequence[int] | None = None,
    ):
        self.workflow = workflow
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.attribute_order = (
            tuple(attribute_order)
            if attribute_order is not None
            else choose_attribute_order(workflow)
        )
        self._sort_key = make_sort_key(workflow.schema, self.attribute_order)
        # Measures sharing a granularity share one coordinate mapper:
        # the scan computes each distinct mapping once per record.
        self._grain_mappers: list = []
        grain_slots: dict = {}
        self._basic = []
        for measure in workflow.basic_measures():
            slot = grain_slots.get(measure.granularity)
            if slot is None:
                slot = len(self._grain_mappers)
                grain_slots[measure.granularity] = slot
                self._grain_mappers.append(
                    measure.granularity.coordinate_mapper()
                )
            self._basic.append(
                (
                    measure,
                    slot,
                    workflow.schema.field_index(measure.field),
                    is_prefix_compatible(
                        measure.granularity, self.attribute_order
                    ),
                )
            )

    # -- basic measures ---------------------------------------------------------

    def _scan_basic(
        self, records: Sequence[Record], stats: LocalStats
    ) -> dict[str, MeasureTable]:
        """One pass over sorted records computing every basic measure."""
        contiguous = [entry for entry in self._basic if entry[3]]
        hashed = [entry for entry in self._basic if not entry[3]]
        stats.contiguous_measures += len(contiguous)
        stats.hashed_measures += len(hashed)

        tables = {
            measure.name: MeasureTable(measure.granularity)
            for measure, *_ in self._basic
        }
        # Per contiguous measure: [current_coords, accumulator].
        running: list = [[None, None] for _ in contiguous]
        hash_accs: list[dict] = [{} for _ in hashed]
        mappers = self._grain_mappers

        for record in records:
            stats.records += 1
            grain_coords = [mapper(record) for mapper in mappers]
            for slot, (measure, grain_slot, field_index, _) in zip(
                running, contiguous
            ):
                coords = grain_coords[grain_slot]
                if slot[0] != coords:
                    if slot[0] is not None:
                        tables[measure.name][slot[0]] = (
                            measure.aggregate.finalize(slot[1])
                        )
                    slot[0] = coords
                    slot[1] = measure.aggregate.create()
                slot[1] = measure.aggregate.add(slot[1], record[field_index])
            for accs, (measure, grain_slot, field_index, _) in zip(
                hash_accs, hashed
            ):
                coords = grain_coords[grain_slot]
                acc = accs.get(coords)
                if acc is None:
                    acc = measure.aggregate.create()
                accs[coords] = measure.aggregate.add(acc, record[field_index])

        for slot, (measure, *_rest) in zip(running, contiguous):
            if slot[0] is not None:
                tables[measure.name][slot[0]] = measure.aggregate.finalize(
                    slot[1]
                )
        for accs, (measure, *_rest) in zip(hash_accs, hashed):
            table = tables[measure.name]
            for coords, acc in accs.items():
                table[coords] = measure.aggregate.finalize(acc)

        stats.basic_rows += sum(len(table) for table in tables.values())
        return tables

    # -- whole-workflow evaluation ----------------------------------------------------

    def evaluate(
        self,
        records: Iterable[Record] | None = None,
        basic_tables: Mapping[str, MeasureTable] | None = None,
        presorted: bool = False,
        stats: LocalStats | None = None,
        blocks: int = 1,
    ) -> ResultSet:
        """Evaluate the workflow over one block.

        Either raw *records* or precomputed *basic_tables* (the
        early-aggregation path) must be supplied.  *blocks* only labels
        the spans: how many distribution blocks the input holds when a
        lifted workflow evaluates a whole reducer bucket at once.
        """
        if stats is None:
            stats = LocalStats()
        fallback_coords = None

        if basic_tables is None:
            if records is None:
                raise WorkflowError(
                    "evaluate() needs records or basic_tables"
                )
            block = records if isinstance(records, list) else list(records)
            if not presorted:
                with self.tracer.span("block-sort") as sort_span:
                    block = sorted(block, key=self._sort_key)
                    sort_span.set(records=len(block), blocks=blocks)
                stats.sorted_records += len(block)
            with self.tracer.span("block-scan") as scan_span:
                tables = dict(self._scan_basic(block, stats))
                scan_span.set(
                    records=len(block),
                    blocks=blocks,
                    contiguous=stats.contiguous_measures,
                    hashed=stats.hashed_measures,
                )
            fallback_coords = block  # resolved lazily per measure below
        else:
            tables = dict(basic_tables)
            missing = [
                m.name
                for m in self.workflow.basic_measures()
                if m.name not in tables
            ]
            if missing:
                raise WorkflowError(
                    f"basic_tables is missing measures {missing}"
                )
            stats.basic_rows += sum(len(t) for t in tables.values())

        with self.tracer.span("block-composites") as composite_span:
            composites = 0
            for measure in self.workflow.topological_order():
                if measure.is_basic:
                    continue
                anchors = self._anchor_coords(measure, fallback_coords, tables)
                table = compute_composite(measure, tables, anchors)
                tables[measure.name] = table
                stats.composite_rows += len(table)
                composites += 1
            composite_span.set(
                measures=composites, rows=stats.composite_rows, blocks=blocks
            )

        return ResultSet(
            {m.name: tables[m.name] for m in self.workflow.measures}
        )

    def _anchor_coords(self, measure, records, tables):
        """Anchor regions for measures whose edges are all ALIGN.

        Prefers raw records; otherwise derives anchors from any available
        table at a granularity finer than the target.
        """
        if any(
            edge.relationship is not Relationship.ALIGN
            for edge in measure.inputs
        ):
            return None
        if records is not None:
            mapper = measure.granularity.coordinate_mapper()
            return {mapper(record) for record in records}
        for source in tables.values():
            if measure.granularity.is_generalization_of(source.granularity):
                to_anchor = source.granularity.coords_mapper(
                    measure.granularity
                )
                return {to_anchor(coords) for coords in source.coords()}
        return None


def evaluate_centralized(
    workflow: Workflow,
    records: Iterable[Record],
    stats: LocalStats | None = None,
) -> ResultSet:
    """Evaluate *workflow* over the whole dataset on a single node.

    This is the correctness oracle for the parallel algorithm: any
    feasible distribution scheme must produce exactly this result.
    """
    return BlockEvaluator(workflow).evaluate(records, stats=stats)
