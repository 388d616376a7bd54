"""NumPy-accelerated basic-measure aggregation.

The pure-Python scan in :mod:`repro.local.sortscan` processes a few
hundred thousand records per second; for bulk re-evaluation that is the
bottleneck.  This module vectorizes the *basic measure* phase: records
become a 2-D integer array, region coordinates are computed by
vectorized level mapping, and grouped aggregation runs through
``np.unique`` + ``np.bincount`` / ``np.add.reduceat``.

Composite measures reuse the ordinary operators (their inputs -- measure
tables -- are orders of magnitude smaller than the raw records, so
vectorizing them buys little).

Supported basic aggregates: ``sum``, ``count``, ``min``, ``max``,
``avg``.  Other functions make :func:`vectorized_supports` return
``False``, and non-integer record values are detected per block; in
both cases :class:`VectorizedBlockEvaluator` falls back to the scalar
:class:`~repro.local.sortscan.BlockEvaluator` automatically.

Results are bit-identical to the scalar path for integer inputs (sums
of ints are exact in both), which the test suite asserts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cube.batches import RecordBatch, peak_magnitude, row_tuples
from repro import kernels
from repro.cube.domains import ALL, ALL_VALUE
from repro.cube.records import Record
from repro.cube.regions import Granularity
from repro.query.measures import Relationship
from repro.query.workflow import Workflow
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.sortscan import (
    BlockEvaluator,
    LocalStats,
    is_prefix_compatible,
)
from repro.obs.tracer import NULL_TRACER

#: Basic aggregates with a vectorized grouped implementation.
VECTORIZED_AGGREGATES = frozenset({"sum", "count", "min", "max", "avg"})


def vectorized_supports(workflow: Workflow) -> bool:
    """Whether every basic measure has a vectorized implementation."""
    return all(
        measure.aggregate.name in VECTORIZED_AGGREGATES
        for measure in workflow.basic_measures()
    )


def _coordinate_columns(
    granularity: Granularity, matrix: np.ndarray
) -> np.ndarray:
    """Region coordinates for every record row, vectorized per attribute.

    Uniform hierarchies map by integer division; nominal and irregular
    hierarchies map through a lookup table indexed by base value.
    """
    schema = granularity.schema
    columns = []
    for index, (attr, level) in enumerate(
        zip(schema.attributes, granularity.levels)
    ):
        base_column = matrix[:, index]
        if level == ALL:
            columns.append(np.full(len(matrix), ALL_VALUE, dtype=np.int64))
            continue
        hierarchy = attr.hierarchy
        if level == hierarchy.base.name:
            columns.append(base_column)
            continue
        unit = getattr(hierarchy.level(level), "unit", None)
        if unit:
            columns.append(base_column // unit)
        else:
            base_name = hierarchy.base.name
            table = np.fromiter(
                (
                    hierarchy.map_value(value, base_name, level)
                    for value in range(
                        hierarchy.level(base_name).cardinality
                    )
                ),
                dtype=np.int64,
            )
            columns.append(table[base_column])
    return np.column_stack(columns)


def _sorted_runs(
    coords: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(sort order, run-start boundary mask) over matrix rows.

    Bit-packs the coordinate columns into single int64 keys when the
    value ranges fit 63 bits -- one stable 1-D ``argsort`` plus a 1-D
    diff then replaces the k-column ``np.lexsort`` and the 2-D row
    comparison, which is where the grouping sweep spends its time.
    Stable sorts make both orders identical, so downstream reductions
    are bit-identical whichever path ran.
    """
    packed = kernels.pack_rows(coords)
    if packed is not None:
        keys, _low = packed
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundary = np.ones(len(sorted_keys), dtype=bool)
        boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
        return order, boundary
    order = np.lexsort(coords.T[::-1])
    return order, kernels.row_boundaries(coords[order])


def _grouped_aggregate(
    coords: np.ndarray,
    values: np.ndarray,
    name: str,
    runs: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(unique coords, aggregated values) for one basic measure, given
    the :func:`_sorted_runs` of its *coords*."""
    order, boundary = runs
    sorted_values = values[order]
    starts = np.flatnonzero(boundary)
    unique = coords[order[starts]]

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


class VectorizedBlockEvaluator:
    """Drop-in accelerated evaluator for supported workflows.

    Falls back to the scalar :class:`BlockEvaluator` whenever the
    workflow uses unsupported basic aggregates; composite measures
    always run through the shared operators, so results are identical
    either way.  *attribute_order* and *tracer* are handed to that
    scalar half (:func:`repro.local.lifting.vectorized_bucket_evaluator`
    keeps the unlifted workflow's order behind the block ordinal), and
    the vectorized basic phase reports what the scalar one would: the
    same :class:`LocalStats` counters and the same ``block-sort`` /
    ``block-scan`` spans.
    """

    def __init__(
        self,
        workflow: Workflow,
        attribute_order: Sequence[int] | None = None,
        tracer=None,
    ):
        self.workflow = workflow
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The exact scalar evaluator every fallback (and the composite
        #: phase) runs through.
        self.scalar = BlockEvaluator(
            workflow, tracer=tracer, attribute_order=attribute_order
        )
        self.accelerated = vectorized_supports(workflow)
        # Pure-ALIGN composites anchor their regions on the raw records;
        # only then does the composite phase need the scalar tuples back.
        self._needs_anchor_records = any(
            not measure.is_basic
            and all(
                edge.relationship is Relationship.ALIGN
                for edge in measure.inputs
            )
            for measure in workflow.measures
        )
        basics = list(workflow.basic_measures())
        # How the scalar scan would split the basic measures.
        self._contiguous = sum(
            is_prefix_compatible(
                measure.granularity, self.scalar.attribute_order
            )
            for measure in basics
        )
        self._hashed = len(basics) - self._contiguous

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
        if stats is None:
            stats = LocalStats()
        if isinstance(records, RecordBatch):
            return self._evaluate_batch(records, stats, blocks)
        if not self.accelerated:
            return self.scalar.evaluate(records, stats=stats, blocks=blocks)
        block = records if isinstance(records, list) else list(records)
        if not block:
            return self.scalar.evaluate([], stats=stats, blocks=blocks)

        matrix = np.asarray(block)
        if not np.issubdtype(matrix.dtype, np.integer):
            # Float (or object) fact values: casting to int64 would
            # silently truncate them, so take the scalar path instead.
            return self.scalar.evaluate(block, stats=stats, blocks=blocks)
        if matrix.size and peak_magnitude(matrix) > (2**62) // max(
            1, len(block)
        ):
            # Conservative overflow guard: int64 reductions wrap
            # silently; huge values go through arbitrary-precision
            # Python ints on the scalar path instead.
            return self.scalar.evaluate(block, stats=stats, blocks=blocks)
        return self._evaluate_matrix(matrix, block, stats, blocks)

    def _evaluate_batch(
        self, batch: RecordBatch, stats: LocalStats, blocks: int
    ) -> ResultSet:
        if not self.accelerated or not len(batch) or not (
            batch.reduction_safe()
        ):
            return self.scalar.evaluate(
                batch.to_records(), stats=stats, blocks=blocks
            )
        block = batch.to_records() if self._needs_anchor_records else None
        return self._evaluate_matrix(batch.matrix, block, stats, blocks)

    def _evaluate_matrix(
        self,
        matrix: np.ndarray,
        block: list | None,
        stats: LocalStats,
        blocks: int,
    ) -> ResultSet:
        schema = self.workflow.schema
        basics = list(self.workflow.basic_measures())
        size = len(matrix)
        with self.tracer.span("block-sort") as sort_span:
            coords = [
                _coordinate_columns(measure.granularity, matrix)
                for measure in basics
            ]
            runs = [_sorted_runs(columns) for columns in coords]
            sort_span.set(records=size, blocks=blocks)
        stats.sorted_records += size
        with self.tracer.span("block-scan") as scan_span:
            stats.contiguous_measures += self._contiguous
            stats.hashed_measures += self._hashed
            stats.records += size
            tables: dict[str, MeasureTable] = {}
            for measure, columns, measure_runs in zip(basics, coords, runs):
                unique, aggregated = _grouped_aggregate(
                    columns,
                    matrix[:, schema.field_index(measure.field)],
                    measure.aggregate.name,
                    measure_runs,
                )
                tables[measure.name] = MeasureTable(
                    measure.granularity,
                    dict(
                        zip(map(tuple, unique.tolist()), aggregated.tolist())
                    ),
                )
            scan_span.set(
                records=size,
                blocks=blocks,
                contiguous=stats.contiguous_measures,
                hashed=stats.hashed_measures,
            )
        # Composite phase: identical code path to the scalar evaluator;
        # records ride along so pure-ALIGN measures can anchor regions.
        return self.scalar.evaluate(
            records=block, basic_tables=tables, stats=stats, blocks=blocks
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
        else:  # pragma: no cover - vectorized_supports filters these
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
