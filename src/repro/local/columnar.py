"""Composite measures over measure tables held as arrays.

The vectorized evaluator keeps every measure table of one evaluation as
a :class:`ColumnTable` -- unique coordinate rows in lexicographic order
plus one value per row -- from the basic phase through the composite
operators to the reducer's output.  This module holds those operators:
roll-up (:func:`rollup_columns`), the sibling window
(:func:`window_columns`), the built-in combine expressions
(:func:`combine_columns`), and one composite measure's candidate
intersection and parent alignment (:class:`CompositePlan`).

Every operator reproduces the dict operators of
:mod:`repro.local.operators` bit for bit and type for type: int values
stay ``int``, float values stay ``float``.  Where arrays cannot promise
that, an operator returns ``None`` and the caller evaluates that one
measure with :func:`~repro.local.sortscan.compute_composite` instead.
The gates:

* int ``sum`` and ``avg`` operands whose total magnitude may pass
  ``2**53`` (the dict path's ``avg`` folds them into a float);
* int operands of ``ratio``, ``difference`` and ``total`` beyond
  float64's exact range or near int64's, and an int ``product`` that
  may overflow int64;
* aggregates other than ``sum``/``count``/``min``/``max``/``avg``;
* any source column of mixed or non-numeric Python values, except that
  ``ratio`` reads a SELF or ALIGN source whose column holds only
  ``float`` values and ``int`` values within ``2**53`` (a holistic basic
  measure's: an even-sized group's median is a ``float``, an odd one's
  an ``int``) as float64, which is exact.

Float ``sum``, ``avg``, ``min`` and ``max`` fold each group left to
right, in the order the dict operator visits it (the table's coordinate
order for a roll-up, the window axis for a sibling window): a masked
fold advances every group one element per step, because
``np.add.reduceat`` sums long runs pairwise and would round
differently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro import kernels
from repro.cube.batches import row_tuples
from repro.cube.domains import ALL, ALL_VALUE
from repro.cube.regions import Granularity
from repro.local.measure_table import MeasureTable
from repro.query.functions import DIFFERENCE, IDENTITY, PRODUCT, RATIO, TOTAL
from repro.query.measures import Measure, Relationship

#: Aggregates with a columnar roll-up and window.
COLUMNAR_AGGREGATES = frozenset({"sum", "count", "min", "max", "avg"})

#: float64 holds every integer up to this magnitude exactly.
_EXACT_INT = 2**53

#: Int operands of ``difference``/``total`` up to this cannot overflow.
_HALF_INT64 = 2**62 - 1

#: Longest group a masked fold advances step by step; longer groups
#: fold one at a time with ``np.add.accumulate`` (sequential too).
_FOLD_STEPS = 64


class ColumnTable:
    """A measure table as arrays.

    ``coords`` is an ``(n, k)`` int64 matrix of unique rows in
    lexicographic order; ``values`` holds one value per row: int64 or
    float64 when every value is a Python ``int`` or ``float``, otherwise
    an object array of the values themselves.
    """

    __slots__ = ("coords", "values")

    def __init__(self, coords: np.ndarray, values: np.ndarray):
        self.coords = coords
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def to_table(self, granularity: Granularity) -> MeasureTable:
        """The dict form of this table."""
        table = MeasureTable(granularity)
        table.values = dict(zip(row_tuples(self.coords), self.values.tolist()))
        return table

    @classmethod
    def from_table(cls, table: MeasureTable) -> "ColumnTable":
        """The array form of a dict table."""
        width = len(table.granularity.levels)
        items = sorted(table.items())
        coords = np.array(
            [coords for coords, _value in items], dtype=np.int64
        ).reshape(len(items), width)
        return cls(coords, value_column([value for _coords, value in items]))


def value_column(values: list) -> np.ndarray:
    """*values* as a column whose ``tolist()`` gives them back
    unchanged, types included."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    elif kinds == {float}:
        return np.array(values, dtype=np.float64)
    column = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        column[index] = value
    return column


def sorted_runs(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stable sort order, run-start boundary mask) over matrix rows.

    Bit-packs the coordinate columns into single int64 keys when the
    value ranges fit 63 bits -- one stable 1-D ``argsort`` plus a 1-D
    diff then replaces the k-column ``np.lexsort`` and the 2-D row
    comparison.  Stable sorts make both orders identical, so downstream
    reductions are bit-identical whichever path ran.
    """
    packed = kernels.pack_rows(coords)
    if packed is not None:
        keys, _low = packed
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundary = np.ones(len(sorted_keys), dtype=bool)
        boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
        return order, boundary
    if not coords.shape[1]:
        boundary = np.zeros(len(coords), dtype=bool)
        boundary[:1] = True
        return np.arange(len(coords)), boundary
    order = np.lexsort(coords.T[::-1])
    return order, kernels.row_boundaries(coords[order])


def unique_rows(coords: np.ndarray) -> np.ndarray:
    """The distinct rows of *coords*, in lexicographic order."""
    order, boundary = sorted_runs(coords)
    return coords[order[boundary]]


def shared_keys(first: np.ndarray, second: np.ndarray):
    """One int64 key per row of two matrices, ordered like the rows.

    Equal rows get equal keys in either matrix: packed bits over the
    two matrices' joint value range, or a dense rank of the rows when
    that range does not fit 63 bits.
    """
    stacked = np.concatenate((first, second))
    packed = kernels.pack_rows(stacked)
    if packed is not None:
        keys = packed[0]
    else:
        order, boundary = sorted_runs(stacked)
        keys = np.empty(len(stacked), dtype=np.int64)
        keys[order] = np.cumsum(boundary) - 1
    return keys[: len(first)], keys[len(first) :]


def lookup(queries: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row index in *table* (sorted unique rows) of every row of
    *queries*, ``-1`` where it is absent."""
    if not len(table) or not len(queries):
        return np.full(len(queries), -1, dtype=np.int64)
    if queries.shape == table.shape and np.array_equal(queries, table):
        return np.arange(len(queries))
    query_keys, table_keys = shared_keys(queries, table)
    found = np.searchsorted(table_keys, query_keys)
    clipped = np.minimum(found, len(table_keys) - 1)
    return np.where(table_keys[clipped] == query_keys, clipped, -1)


def coords_mapper(source: Granularity, target: Granularity):
    """``coords -> coords`` from *source* up to *target*, on arrays.

    The array form of :meth:`Granularity.coords_mapper`, one
    :meth:`~repro.cube.domains.Hierarchy.map_array` per attribute whose
    level moves.  Reads only the leading ``len(levels)`` columns, so a
    record matrix maps from the base granularity directly.
    """
    width = len(target.levels)
    steps = []
    for attr, src, dst in zip(
        source.schema.attributes, source.levels, target.levels
    ):
        if src == dst:
            steps.append(None)
        elif dst == ALL:
            steps.append(ALL)
        else:
            steps.append(attr.hierarchy.map_array(src, dst))
    if all(step is None for step in steps):
        return lambda coords: coords[:, :width]

    def mapper(coords: np.ndarray) -> np.ndarray:
        out = np.empty((len(coords), width), dtype=np.int64)
        for index, step in enumerate(steps):
            if step is ALL:
                out[:, index] = ALL_VALUE
            elif step is None:
                out[:, index] = coords[:, index]
            else:
                out[:, index] = step(coords[:, index])
        return out

    return mapper


def base_granularity(schema) -> Granularity:
    """Every attribute of *schema* at its base level: the granularity of
    a record matrix's leading columns."""
    return Granularity(
        schema, tuple(attr.hierarchy.base.name for attr in schema.attributes)
    )


# -- gates --------------------------------------------------------------------


def _peak(values: np.ndarray) -> int:
    """Largest ``|value|`` of a non-empty int column, exactly."""
    return max(int(values.max()), -int(values.min()))


def _ints_within(values: np.ndarray, limit: int) -> bool:
    return not len(values) or _peak(values) <= limit


def _total_within(values: np.ndarray, limit: int) -> bool:
    """Whether every partial sum of ``|values|`` stays within *limit*."""
    return not len(values) or _peak(values) * len(values) <= limit


# -- folds ----------------------------------------------------------------------


def _fold(values, starts, stops, name: str) -> np.ndarray:
    """``aggregate.aggregate(values[start:stop])`` per non-empty range,
    for float *values*, folding left to right as the scalar protocol
    does; *name* is ``sum``/``avg`` (the running sum) or ``min``/
    ``max``."""
    lengths = stops - starts
    if name in ("sum", "avg"):
        acc = np.zeros(len(starts), dtype=np.float64)
    else:
        acc = np.empty(len(starts), dtype=values.dtype)
    live = np.flatnonzero((lengths > 0) & (lengths <= _FOLD_STEPS))
    step = 0
    while len(live):
        taken = values[starts[live] + step]
        if name in ("sum", "avg"):
            acc[live] += taken
        elif step == 0:
            acc[live] = taken
        else:
            held = acc[live]
            better = taken < held if name == "min" else taken > held
            acc[live] = np.where(better, taken, held)
        step += 1
        live = live[lengths[live] > step]
    for index in np.flatnonzero(lengths > _FOLD_STEPS):
        run = values[starts[index] : stops[index]]
        if name in ("sum", "avg"):
            acc[index] = np.add.accumulate(np.concatenate(([0.0], run)))[-1]
        else:
            held = run[0]
            for taken in run[1:].tolist():
                if (taken < held) if name == "min" else (taken > held):
                    held = taken
            acc[index] = held
    return acc


def _reduce(
    values, starts, stops, name: str, segments: bool = False
) -> np.ndarray | None:
    """One aggregate per non-empty ``[start, stop)`` range of *values*,
    exactly as the dict operators compute it, or ``None``.  With
    *segments*, the ranges tile *values* in order."""
    if name == "count":
        return (stops - starts).astype(np.int64)
    if values.dtype.kind == "f":
        acc = _fold(values, starts, stops, name)
        return acc / (stops - starts) if name == "avg" else acc
    op = "sum" if name == "avg" else name
    if op == "sum" and not _total_within(values, _EXACT_INT):
        return None
    if segments:
        out = kernels.segment_reduce(values, starts, op)
    else:
        out = kernels.range_reduce(values, starts, stops, op)
    if name == "avg":
        # The dict fold's float running sum is the exact int sum here.
        return out.astype(np.float64) / (stops - starts)
    return out


def _runnable(table: ColumnTable, name: str) -> bool:
    return name in COLUMNAR_AGGREGATES and (
        name == "count" or table.values.dtype.kind in "if"
    )


# -- operators ----------------------------------------------------------------------


def rollup_columns(
    table: ColumnTable, to_target: Callable, name: str
) -> ColumnTable | None:
    """Aggregate child-region values into their parent regions.

    *to_target* maps source coordinates to the target granularity (see
    :func:`coords_mapper`).  The stable sort keeps each group in the
    source's coordinate order, which is the order the dict roll-up
    folds it in.
    """
    if not _runnable(table, name):
        return None
    mapped = to_target(table.coords)
    order, boundary = sorted_runs(mapped)
    starts = np.flatnonzero(boundary)
    stops = np.append(starts[1:], len(order))
    values = _reduce(table.values[order], starts, stops, name, segments=True)
    if values is None:
        return None
    return ColumnTable(mapped[order[starts]], values)


def window_columns(
    table: ColumnTable, axis: int, low: int, high: int, name: str
) -> ColumnTable | None:
    """Sliding-window aggregation along coordinate column *axis*.

    Every group of rows sharing the other coordinates is swept at once:
    the rows are ordered by (other coordinates, axis), each row gets the
    key ``group * span + offset``, and ``searchsorted`` finds every
    anchor's window bounds, clamped to its own group so no window
    crosses a group (or a block ordinal).  Anchors whose window holds
    no row produce no output, as in the dict operator.
    """
    if not _runnable(table, name):
        return None
    coords = table.coords
    size, width = coords.shape
    if not size:
        return table
    others = [column for column in range(width) if column != axis]
    order = None
    if axis != width - 1:
        order, _boundary = sorted_runs(coords[:, others + [axis]])
        coords = coords[order]
    positions = coords[:, axis]
    if others:
        group_starts = np.flatnonzero(kernels.row_boundaries(coords[:, others]))
    else:
        group_starts = np.zeros(1, dtype=np.int64)
    group_sizes = np.diff(np.append(group_starts, size))
    groups = np.repeat(np.arange(len(group_starts)), group_sizes)
    lowest = int(positions.min())
    span = int(positions.max()) - lowest + 1
    if len(group_starts) * span + abs(low) + abs(high) >= 2**62:
        return None
    keys = groups * span + (positions - lowest)
    first = np.repeat(group_starts, group_sizes)
    starts = np.maximum(np.searchsorted(keys, keys + low, side="left"), first)
    stops = np.minimum(
        np.searchsorted(keys, keys + high, side="right"), first + group_sizes[groups]
    )
    mask = starts < stops
    values = table.values if order is None else table.values[order]
    out = _reduce(values, starts[mask], stops[mask], name)
    if out is None:
        return None
    if order is None:
        return ColumnTable(coords[mask], out)
    # Back to the table's coordinate order.
    kept = np.zeros(size, dtype=bool)
    kept[order[mask]] = True
    placed = np.empty(size, dtype=out.dtype)
    placed[order[mask]] = out
    return ColumnTable(table.coords[kept], placed[kept])


# -- expressions ---------------------------------------------------------------------


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`~repro.query.functions._safe_ratio` on float64 columns."""
    out = np.empty(len(a), dtype=np.float64)
    nonzero = b != 0
    with np.errstate(all="ignore"):
        np.divide(a, b, out=out, where=nonzero)
    zero = ~nonzero
    numerators = a[zero]
    out[zero] = np.where(
        numerators == 0, 0.0, np.copysign(np.inf, numerators)
    )
    return out


_FLOAT_OPS = {
    "ratio": _ratio,
    "difference": np.subtract,
    "product": np.multiply,
    "total": np.add,
}

_BUILTINS = {
    IDENTITY: "identity",
    RATIO: "ratio",
    DIFFERENCE: "difference",
    PRODUCT: "product",
    TOTAL: "total",
}


def combine_columns(expression, columns: Sequence[np.ndarray]):
    """The measure's combine expression over aligned value columns.

    The five built-ins run as array operations, or return ``None`` when
    arrays would not match Python arithmetic exactly; any other
    expression is called once per row.
    """
    kind = _BUILTINS.get(expression)
    if kind is None:
        rows = zip(*(column.tolist() for column in columns))
        return value_column([expression.apply(*row) for row in rows])
    if kind == "identity":
        return columns[0]
    a, b = columns
    if a.dtype.kind == "i" and b.dtype.kind == "i" and kind != "ratio":
        if kind == "product":
            if len(a) and _peak(a) * _peak(b) >= 2**63:
                return None
        elif not (_ints_within(a, _HALF_INT64) and _ints_within(b, _HALF_INT64)):
            return None
        return _FLOAT_OPS[kind](a, b)
    for column in (a, b):
        if column.dtype.kind == "i" and not _ints_within(column, _EXACT_INT):
            return None
    with np.errstate(all="ignore"):
        return _FLOAT_OPS[kind](
            a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
        )


# -- one composite measure --------------------------------------------------------------


class CompositePlan:
    """How one composite measure runs on :class:`ColumnTable`\\ s.

    Built once per evaluator: each edge's relationship with its column
    mapper, window axis or aggregate resolved up front.
    """

    __slots__ = ("measure", "edges", "anchors", "sources")

    def __init__(self, measure: Measure):
        self.measure = measure
        target = measure.granularity
        self.edges = []
        for edge in measure.inputs:
            source = edge.source
            relationship = edge.relationship
            if relationship is Relationship.ROLLUP:
                step = (
                    coords_mapper(source.granularity, target),
                    edge.aggregate.name,
                )
            elif relationship is Relationship.SIBLING:
                step = (
                    target.schema.attribute_index(edge.window.attribute),
                    edge.window.low,
                    edge.window.high,
                    edge.aggregate.name,
                )
            elif relationship is Relationship.ALIGN:
                step = coords_mapper(target, source.granularity)
            else:
                step = None
            self.edges.append((relationship, source.name, step))
        #: Pure-ALIGN measures anchor on the records' own regions: this
        #: maps a record matrix to them (``None`` for other measures).
        self.anchors = (
            coords_mapper(base_granularity(target.schema), target)
            if all(
                relationship is Relationship.ALIGN
                for relationship, _name, _step in self.edges
            )
            else None
        )
        self.sources = tuple({name: None for _r, name, _s in self.edges})

    def evaluate(
        self, tables: dict[str, ColumnTable], anchors: np.ndarray | None
    ) -> ColumnTable | None:
        """The measure's table, or ``None`` when a gate fails.

        *anchors* are the target-granularity regions of the input
        records (only read for a pure-ALIGN measure).
        """
        exact: list[ColumnTable] = []
        aligned: list[tuple[int, ColumnTable, Callable]] = []
        for position, (relationship, name, step) in enumerate(self.edges):
            table = tables[name]
            if table.values.dtype == object:
                # Mixed Python values (None reads as "missing" to the
                # dict operator): only ``ratio`` over ints and floats
                # read as they are has an exact array form.
                table = self._as_floats(relationship, table)
                if table is None:
                    return None
            if relationship is Relationship.ROLLUP:
                table = rollup_columns(table, *step)
            elif relationship is Relationship.SIBLING:
                table = window_columns(table, *step)
            elif relationship is Relationship.ALIGN:
                aligned.append((position, table, step))
                continue
            if table is None:
                return None
            exact.append(table)

        # Candidates: regions every non-ALIGN edge has a value for.
        if exact:
            candidates = exact[0].coords
            picks = [np.arange(len(candidates))]
            for table in exact[1:]:
                found = lookup(candidates, table.coords)
                hit = found >= 0
                if not hit.all():
                    candidates = candidates[hit]
                    picks = [pick[hit] for pick in picks]
                    found = found[hit]
                picks.append(found)
        else:
            candidates = anchors
            picks = []
        columns = [table.values[pick] for table, pick in zip(exact, picks)]

        # ALIGN edges: the parent region's value, when there is one.
        for position, table, to_parent in aligned:
            found = lookup(to_parent(candidates), table.coords)
            hit = found >= 0
            if not hit.all():
                candidates = candidates[hit]
                columns = [column[hit] for column in columns]
                found = found[hit]
            columns.insert(position, table.values[found])
        values = combine_columns(self.measure.effective_combine, columns)
        if values is None:
            return None
        return ColumnTable(candidates, values)

    def _as_floats(
        self, relationship: Relationship, table: ColumnTable
    ) -> ColumnTable | None:
        """*table*'s object column as float64 when a ``ratio`` reads it
        as is (a SELF or ALIGN edge) and the cast is exact: only
        ``float`` values and ``int`` values within ``2**53``.  IEEE
        division of the cast values is then ``_safe_ratio``'s
        ``a / b``."""
        if _BUILTINS.get(self.measure.effective_combine) != "ratio" or (
            relationship not in (Relationship.SELF, Relationship.ALIGN)
        ):
            return None
        values = table.values.tolist()
        if not set(map(type, values)) <= {int, float}:
            return None
        try:
            floats = np.array(values, dtype=np.float64)
        except OverflowError:
            return None
        for index in np.flatnonzero(np.abs(floats) >= _EXACT_INT).tolist():
            if type(values[index]) is int and abs(values[index]) > _EXACT_INT:
                return None
        return ColumnTable(table.coords, floats)
