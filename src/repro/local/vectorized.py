"""The NumPy evaluator: one block, or one lifted bucket, on arrays.

The pure-Python scan in :mod:`repro.local.sortscan` processes a few
hundred thousand records per second; for bulk evaluation that is the
bottleneck.  Here records become a 2-D integer array, region
coordinates are computed by vectorized level mapping, and grouped
aggregation runs through one stable sort plus ``np.add.reduceat``
(the basic phase).  The composite phase stays on arrays too: every
measure table is a :class:`~repro.local.columnar.ColumnTable`, and
roll-ups, sibling windows, parent alignment and the built-in
expressions run as array operations (:mod:`repro.local.columnar`).
Measured on Q1-Q6 over 6,000 records on 8 simulated machines, the dict
operators and the per-row output loop took about half of each reducer
evaluation; that is why they no longer run here.

Supported basic aggregates: ``sum``, ``count``, ``min``, ``max``,
``avg`` and the holistic ``median``, exact quantiles
(:func:`~repro.query.functions.quantile_function`) and
``count_distinct``.  The holistic ones order every group's values with
one lexsort by (group, value) and read each statistic off the run
boundaries.  Other functions (``variance``, ``stddev``) make
:func:`vectorized_supports` return ``False``, and non-integer or
overflow-prone record values are detected per block; in both cases
:class:`VectorizedBlockEvaluator` falls back to the scalar
:class:`~repro.local.sortscan.BlockEvaluator` automatically.  A
composite measure whose arrays could not match the dict operators
exactly (see :mod:`repro.local.columnar` for the gates) falls back
alone.

Results are bit- and type-identical to the scalar path, which the test
suite asserts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cube.batches import RecordBatch, peak_magnitude, row_tuples
from repro import kernels
from repro.cube.domains import ALL
from repro.cube.records import Record
from repro.cube.regions import Granularity
from repro.query.functions import AggregateFunction
from repro.query.workflow import Workflow
from repro.local.columnar import (
    ColumnTable,
    CompositePlan,
    base_granularity,
    coords_mapper,
    sorted_runs,
    unique_rows,
)
from repro.local.measure_table import ResultSet
from repro.local.sortscan import (
    BlockEvaluator,
    LocalStats,
    compute_composite,
    is_prefix_compatible,
)
from repro.obs.tracer import NULL_TRACER

#: Basic aggregates with a vectorized grouped implementation; every
#: exact quantile (a function with a ``quantile`` fraction) has one too.
VECTORIZED_AGGREGATES = frozenset(
    {"sum", "count", "min", "max", "avg", "median", "count_distinct"}
)


def vectorized_supports(workflow: Workflow) -> bool:
    """Whether every basic measure has a vectorized implementation."""
    return all(
        measure.aggregate.name in VECTORIZED_AGGREGATES
        or measure.aggregate.quantile is not None
        for measure in workflow.basic_measures()
    )


def _coordinate_columns(
    granularity: Granularity, matrix: np.ndarray
) -> np.ndarray:
    """Region coordinates for every record row, vectorized per attribute
    (see :func:`~repro.local.columnar.coords_mapper`)."""
    return coords_mapper(base_granularity(granularity.schema), granularity)(
        matrix
    )


def _grouped_aggregate(
    coords: np.ndarray,
    values: np.ndarray,
    aggregate: AggregateFunction,
    runs: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(unique coords, aggregated values) for one basic measure, given
    the :func:`~repro.local.columnar.sorted_runs` of its *coords*."""
    order, boundary = runs
    sorted_values = values[order]
    starts = np.flatnonzero(boundary)
    unique = coords[order[starts]]

    name = aggregate.name
    if name in _HOLISTIC or aggregate.quantile is not None:
        return unique, _holistic(sorted_values, boundary, starts, aggregate)
    if name == "count":
        return unique, kernels.segment_counts(starts, len(sorted_values))
    if name == "sum":
        return unique, kernels.segment_reduce(sorted_values, starts, "sum")
    if name == "avg":
        sums = kernels.segment_reduce(
            sorted_values.astype(np.float64), starts, "sum"
        )
        counts = kernels.segment_counts(starts, len(sorted_values))
        return unique, sums / counts
    if name == "min":
        return unique, kernels.segment_reduce(sorted_values, starts, "min")
    if name == "max":
        return unique, kernels.segment_reduce(sorted_values, starts, "max")
    raise ValueError(f"no vectorized implementation for {name!r}")


#: The holistic aggregates :func:`_holistic` computes (besides quantiles).
_HOLISTIC = frozenset({"median", "count_distinct"})


def _holistic(
    values: np.ndarray,
    boundary: np.ndarray,
    starts: np.ndarray,
    aggregate: AggregateFunction,
) -> np.ndarray:
    """``median``, a quantile or ``count_distinct`` of every run of the
    int *values* (grouped, run starts marked by *boundary*), typed as
    :mod:`repro.query.functions` types them.

    One lexsort by (run, value) orders each run; the run starts stay
    where they were, so every statistic is index arithmetic on *starts*.
    """
    ordered = values[np.lexsort((values, np.cumsum(boundary)))]
    if aggregate.name == "count_distinct":
        new = boundary.copy()
        new[1:] |= ordered[1:] != ordered[:-1]
        return kernels.segment_reduce(new.astype(np.int64), starts, "sum")
    counts = kernels.segment_counts(starts, len(ordered))
    if aggregate.quantile is not None:
        # ``int(q * n)``: the same float multiply, truncated.
        index = (aggregate.quantile * counts).astype(np.int64)
        return ordered[starts + np.minimum(counts - 1, index)]
    upper = ordered[starts + counts // 2]
    even = counts % 2 == 0
    if not even.any():
        return upper
    # An even run's median is ``(a + b) / 2``, a float.  The int64 sum
    # cannot overflow on a reduction-safe matrix, its float64 is the
    # correctly rounded sum, and halving that is exact: the quotient is
    # the correctly rounded one Python's ``int / int`` gives, past
    # ``2**53`` too.
    halves = (ordered[starts + counts // 2 - 1] + upper) / 2
    if even.all():
        return halves
    column = np.empty(len(counts), dtype=object)
    column[~even] = upper[~even]
    column[even] = halves[even]
    return column


class VectorizedBlockEvaluator:
    """Drop-in accelerated evaluator for supported workflows.

    On an int matrix whose reductions cannot overflow, every measure
    table stays a :class:`~repro.local.columnar.ColumnTable` from the
    basic phase through the composite operators
    (:meth:`evaluate_columns`); a composite measure whose arrays could
    not be exact falls back, alone, to
    :func:`~repro.local.sortscan.compute_composite` over dict forms of
    its sources, and the ``block-composites`` span counts it as a
    ``fallbacks`` attribute.  Unsupported basic aggregates and typed or
    huge values send the whole block to the scalar
    :class:`BlockEvaluator`, so results are identical either way.
    *attribute_order* and *tracer* are handed to that scalar half
    (:func:`repro.local.lifting.vectorized_bucket_evaluator` keeps the
    unlifted workflow's order behind the block ordinal), and the
    columnar path reports what the scalar one would: the same
    :class:`LocalStats` counters and the same ``block-sort`` /
    ``block-scan`` / ``block-composites`` spans.
    """

    def __init__(
        self,
        workflow: Workflow,
        attribute_order: Sequence[int] | None = None,
        tracer=None,
    ):
        self.workflow = workflow
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The exact scalar evaluator every fallback runs through.
        self.scalar = BlockEvaluator(
            workflow, tracer=tracer, attribute_order=attribute_order
        )
        self.accelerated = vectorized_supports(workflow)
        basics = workflow.basic_measures()
        # How the scalar scan would split the basic measures.
        self._contiguous = sum(
            is_prefix_compatible(
                measure.granularity, self.scalar.attribute_order
            )
            for measure in basics
        )
        self._hashed = len(basics) - self._contiguous
        base = base_granularity(workflow.schema)
        self._basic_coords = [
            coords_mapper(base, measure.granularity) for measure in basics
        ]
        self._composites = [
            CompositePlan(measure)
            for measure in workflow.topological_order()
            if not measure.is_basic
        ]

    def evaluate(
        self,
        records,
        stats: LocalStats | None = None,
        blocks: int = 1,
    ) -> ResultSet:
        """Evaluate one block given records or a :class:`RecordBatch`.

        *blocks* only labels the spans, as in
        :meth:`BlockEvaluator.evaluate`.
        """
        tables = self.evaluate_columns(records, stats=stats, blocks=blocks)
        if isinstance(tables, ResultSet):
            return tables
        return ResultSet(
            {
                measure.name: tables[measure.name].to_table(
                    measure.granularity
                )
                for measure in self.workflow.measures
            }
        )

    def evaluate_columns(
        self,
        records,
        stats: LocalStats | None = None,
        blocks: int = 1,
    ) -> dict[str, ColumnTable] | ResultSet:
        """:meth:`evaluate`, keeping a columnar run's tables as arrays.

        Returns one :class:`~repro.local.columnar.ColumnTable` per
        measure, in workflow order, or the scalar evaluator's
        :class:`ResultSet` when the block took the scalar path.
        """
        if stats is None:
            stats = LocalStats()
        matrix, block = self._int_matrix(records)
        if matrix is None:
            return self.scalar.evaluate(block, stats=stats, blocks=blocks)
        return self._evaluate_matrix(matrix, stats, blocks)

    def _int_matrix(self, records):
        """``(matrix, None)`` when the columnar path is exact for
        *records*, else ``(None, records as a list)``."""
        if isinstance(records, RecordBatch):
            if self.accelerated and len(records) and records.reduction_safe():
                return records.matrix, None
            return None, records.to_records()
        block = records if isinstance(records, list) else list(records)
        if not self.accelerated or not block:
            return None, block
        matrix = np.asarray(block)
        if not np.issubdtype(matrix.dtype, np.integer):
            # Float (or object) fact values: casting to int64 would
            # silently truncate them, so take the scalar path instead.
            return None, block
        if peak_magnitude(matrix) > (2**62) // len(block):
            # Conservative overflow guard: int64 reductions wrap
            # silently; huge values go through arbitrary-precision
            # Python ints on the scalar path instead.
            return None, block
        return matrix, None

    def _evaluate_matrix(
        self, matrix: np.ndarray, stats: LocalStats, blocks: int
    ) -> dict[str, ColumnTable]:
        schema = self.workflow.schema
        basics = self.workflow.basic_measures()
        size = len(matrix)
        with self.tracer.span("block-sort") as sort_span:
            coords = [to_coords(matrix) for to_coords in self._basic_coords]
            runs = [sorted_runs(columns) for columns in coords]
            sort_span.set(records=size, blocks=blocks)
        stats.sorted_records += size
        with self.tracer.span("block-scan") as scan_span:
            stats.contiguous_measures += self._contiguous
            stats.hashed_measures += self._hashed
            stats.records += size
            tables: dict[str, ColumnTable] = {}
            for measure, columns, measure_runs in zip(basics, coords, runs):
                tables[measure.name] = ColumnTable(
                    *_grouped_aggregate(
                        columns,
                        matrix[:, schema.field_index(measure.field)],
                        measure.aggregate,
                        measure_runs,
                    )
                )
            scan_span.set(
                records=size,
                blocks=blocks,
                contiguous=stats.contiguous_measures,
                hashed=stats.hashed_measures,
            )
        stats.basic_rows += sum(len(table) for table in tables.values())
        with self.tracer.span("block-composites") as composite_span:
            fallbacks = 0
            anchors: dict = {}
            for plan in self._composites:
                measure = plan.measure
                anchor = None
                if plan.anchors is not None:
                    anchor = anchors.get(measure.granularity)
                    if anchor is None:
                        anchor = anchors[measure.granularity] = unique_rows(
                            plan.anchors(matrix)
                        )
                table = plan.evaluate(tables, anchor)
                if table is None:
                    fallbacks += 1
                    table = self._fallback(plan, tables, anchor)
                tables[measure.name] = table
                stats.composite_rows += len(table)
            attributes = {
                "measures": len(self._composites),
                "rows": stats.composite_rows,
                "blocks": blocks,
            }
            if fallbacks:
                attributes["fallbacks"] = fallbacks
            composite_span.set(**attributes)
        return {
            measure.name: tables[measure.name]
            for measure in self.workflow.measures
        }

    def _fallback(
        self,
        plan: CompositePlan,
        tables: dict[str, ColumnTable],
        anchor: np.ndarray | None,
    ) -> ColumnTable:
        """One measure through the dict operator, over dict forms of
        its sources only."""
        sources = {
            name: tables[name].to_table(
                self.workflow.measure(name).granularity
            )
            for name in plan.sources
        }
        return ColumnTable.from_table(
            compute_composite(
                plan.measure,
                sources,
                None if anchor is None else set(row_tuples(anchor)),
            )
        )


def evaluate_vectorized(
    workflow: Workflow,
    records: list[Record],
    stats: LocalStats | None = None,
) -> ResultSet:
    """Convenience wrapper mirroring :func:`evaluate_centralized`."""
    return VectorizedBlockEvaluator(workflow).evaluate(records, stats=stats)


#: Largest float64-exact integer magnitude; float sums beyond it round.
_FLOAT_EXACT_LIMIT = 2**53


def batched_partial_states(
    component: Workflow,
    matrix: np.ndarray,
    keys: np.ndarray,
    rows: np.ndarray,
    varying: list[int],
):
    """Early-aggregation partial states for replicated batch rows.

    The batched counterpart of the mapper-side combiner's per-record
    dict loop, consuming a block router's *raw* replica table: *keys*
    holds the (unsorted) full block key of every replica, *rows* its
    source row in *matrix*, and *varying* the key columns that actually
    vary (the rest are prefix values or ALL markers).  Block grouping
    is folded into each measure's own sort -- one lexsort over
    ``(block columns, region columns)`` jointly groups by block *and*
    by region within it, so nothing is sorted twice.

    Returns ``(block_keys, measures)``: the block keys as plain-int
    tuples in lexicographic order, and one
    ``(local_measure_index, block_ids, coords, states)`` batch per
    basic measure, its columns aligned per distinct (block, region) --
    the exact accumulator states the scalar combiner would have
    produced.  The columns stay as parallel lists rather than per-entry
    tuples so the caller can assemble shuffle pairs without an
    intermediate object per partial.  (Per-measure sorts share one
    block order: the block columns are every sort's primary keys.)

    Returns ``None`` when the states cannot be guaranteed bit-identical
    to the scalar fold: unsupported aggregates, int64 overflow risk, or
    ``avg`` sums beyond float64's exact-integer range.  Callers fall
    back to the scalar combiner for the whole batch in that case.
    """
    if matrix is None:
        # Typed batch (floats/strings/nulls): no int plane to fold over.
        return None
    if not vectorized_supports(component):
        return None
    total = len(rows)
    if total == 0:
        return [], []
    if matrix.size and peak_magnitude(matrix) > (2**62) // total:
        return None

    schema = component.schema
    block_cols = keys[:, varying]
    width = block_cols.shape[1]
    block_keys = None
    measures: list[tuple[int, list, list, list]] = []
    for local_index, measure in enumerate(component.basic_measures()):
        coords = _coordinate_columns(measure.granularity, matrix)
        fine = np.column_stack([block_cols, coords[rows]])
        # ALL-level region columns are constant: sorting and comparing
        # them cannot move a boundary, so group on the rest only.
        grouping = list(range(width)) + [
            width + position
            for position, level in enumerate(measure.granularity.levels)
            if level != ALL
        ]
        sort_cols = (
            fine if len(grouping) == fine.shape[1] else fine[:, grouping]
        )

        # Bit-pack (block cols, region cols) into single int64 keys when
        # the ranges fit 63 bits: one stable 1-D argsort replaces the
        # k-column lexsort, fine runs fall out of a 1-D diff, and the
        # block boundary is a shift of the same keys (the block columns
        # live in the high bits).  Stable sorts make both orders
        # identical, so the folded states are bit-identical either way.
        packed = kernels.pack_rows(sort_cols, split=width)
        if packed is not None:
            packed_keys, low_bits = packed
            order = np.argsort(packed_keys, kind="stable")
            sorted_keys = packed_keys[order]
            fine_boundary = np.ones(total, dtype=bool)
            fine_boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
            block_boundary = np.ones(total, dtype=bool)
            if width:
                block_sorted = sorted_keys >> low_bits
                block_boundary[1:] = (
                    block_sorted[1:] != block_sorted[:-1]
                )
            else:
                block_boundary[1:] = False
        else:
            order = np.lexsort(sort_cols.T[::-1])
            sorted_cols = sort_cols[order]
            diff = sorted_cols[1:] != sorted_cols[:-1]
            fine_boundary = np.ones(total, dtype=bool)
            fine_boundary[1:] = diff.any(axis=1)
            block_boundary = np.ones(total, dtype=bool)
            block_boundary[1:] = diff[:, :width].any(axis=1)
        sorted_values = matrix[
            rows[order], schema.field_index(measure.field)
        ]
        starts = np.flatnonzero(fine_boundary)

        name = measure.aggregate.name
        if name == "count":
            states = kernels.segment_counts(starts, total).tolist()
        elif name == "sum":
            states = kernels.segment_reduce(
                sorted_values, starts, "sum"
            ).tolist()
        elif name == "min":
            states = kernels.segment_reduce(
                sorted_values, starts, "min"
            ).tolist()
        elif name == "max":
            states = kernels.segment_reduce(
                sorted_values, starts, "max"
            ).tolist()
        elif name == "avg":
            # The scalar combiner folds ints into a float sum; that is
            # exact (hence bit-identical) only while every partial stays
            # within float64's exact-integer range, bounded here by the
            # per-group sum of magnitudes.
            magnitude = kernels.segment_reduce(
                np.abs(sorted_values), starts, "sum"
            )
            if len(magnitude) and int(magnitude.max()) >= _FLOAT_EXACT_LIMIT:
                return None
            sums = kernels.segment_reduce(
                sorted_values.astype(np.float64), starts, "sum"
            )
            counts = kernels.segment_counts(starts, total)
            states = list(map(list, zip(sums.tolist(), counts.tolist())))
        else:  # pragma: no cover - holistic measures never early-aggregate
            return None

        block_of_replica = np.cumsum(block_boundary) - 1
        measures.append(
            (
                local_index,
                block_of_replica[starts].tolist(),
                row_tuples(fine[order[starts], width:]),
                states,
            )
        )
        if block_keys is None:
            block_starts = np.flatnonzero(block_boundary)
            block_keys = row_tuples(keys[order[block_starts]])
    return block_keys if block_keys is not None else [], measures
