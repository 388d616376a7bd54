"""Each columnar composite operator against its dict counterpart.

The dict operators of :mod:`repro.local.operators` and
:func:`~repro.local.sortscan.compute_composite` are the oracle: on
generated tables -- gaps, many children per parent, groups a window
leaves empty -- every columnar operator must give the same regions, the
same values bit for bit and the same Python value types, or decline
(``None``) so the evaluator falls back for that measure.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cube.domains import MappingHierarchy, UniformHierarchy
from repro.cube.records import Attribute, Schema
from repro.cube.regions import Granularity
from repro.distribution.clustering import BlockScheme
from repro.distribution.keys import DistributionKey
from repro.local.columnar import (
    ColumnTable,
    CompositePlan,
    combine_columns,
    coords_mapper,
    rollup_columns,
    value_column,
    window_columns,
)
from repro.local.measure_table import MeasureTable
from repro.local.operators import rollup, sibling_window
from repro.local.sortscan import compute_composite
from repro.query.builder import WorkflowBuilder
from repro.query.functions import (
    DIFFERENCE,
    IDENTITY,
    PRODUCT,
    RATIO,
    TOTAL,
    expression,
    get_function,
)
from repro.query.measures import SiblingWindow

X = UniformHierarchy("x", {"value": 1, "four": 4}, base_cardinality=16)
N = MappingHierarchy(
    "n",
    list("abcdefgh"),
    {"group": {"a": "p", "b": "q", "c": "p", "d": "r",
               "e": "q", "f": "r", "g": "p", "h": "q"}},
)
T = UniformHierarchy("t", {"tick": 1, "span": 4}, base_cardinality=64)
SCHEMA = Schema(
    [Attribute("x", X), Attribute("n", N), Attribute("t", T)], facts=["v"]
)
FINE = Granularity.of(SCHEMA, {"x": "value", "n": "value", "t": "tick"})
TARGETS = [
    Granularity.of(SCHEMA, {"x": "four", "n": "group", "t": "span"}),
    Granularity.of(SCHEMA, {"x": "value", "t": "span"}),
    Granularity.of(SCHEMA, {"n": "group"}),
    Granularity.of(SCHEMA, {}),
]

coords = st.tuples(
    st.integers(0, 15), st.integers(0, 7), st.integers(0, 63)
)
ints = st.integers(-1000, 1000)
floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=64
)


def tables(values):
    return st.dictionaries(coords, values, max_size=60)


def measure_table(granularity, items) -> MeasureTable:
    """A dict table holding *items* in coordinate order -- the order a
    columnar table has, and so the order both sides fold floats in."""
    return MeasureTable(granularity, dict(sorted(items.items())))


def typed(table) -> dict:
    """coords -> (type, repr): equal exactly when bits and types are."""
    if isinstance(table, ColumnTable):
        table = table.to_table(FINE)
    return {
        coords: (type(value), repr(value))
        for coords, value in table.items()
    }


class TestRollup:
    @settings(max_examples=80, deadline=None)
    @given(
        items=tables(ints) | tables(floats),
        target=st.sampled_from(TARGETS),
        name=st.sampled_from(["sum", "count", "avg", "min", "max"]),
    )
    def test_matches_dict_rollup(self, items, target, name):
        source = measure_table(FINE, items)
        got = rollup_columns(
            ColumnTable.from_table(source), coords_mapper(FINE, target), name
        )
        want = rollup(source, target, get_function(name))
        assert got is not None
        assert typed(got) == typed(want)

    def test_non_representable_float_sums_fold_in_order(self):
        # 0.1 + 0.2 + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit.
        items = {(0, 0, 0): 0.1, (1, 0, 0): 0.2, (2, 0, 0): 0.3}
        items.update({(i, 1, 0): 0.1 * i for i in range(3, 16)})
        source = measure_table(FINE, items)
        target = TARGETS[3]
        for name in ("sum", "avg"):
            got = rollup_columns(
                ColumnTable.from_table(source),
                coords_mapper(FINE, target),
                name,
            )
            assert typed(got) == typed(
                rollup(source, target, get_function(name))
            )

    def test_int_sums_beyond_float_range_decline(self):
        source = measure_table(
            FINE, {(0, 0, 0): 2**53, (1, 0, 0): 2**53 + 1}
        )
        for name in ("sum", "avg"):
            assert rollup_columns(
                ColumnTable.from_table(source),
                coords_mapper(FINE, TARGETS[3]),
                name,
            ) is None

    def test_holistic_aggregates_decline(self):
        source = measure_table(FINE, {(0, 0, 0): 1})
        assert rollup_columns(
            ColumnTable.from_table(source),
            coords_mapper(FINE, TARGETS[0]),
            "median",
        ) is None


WINDOWS = [(-3, 0), (-47, 0), (-1, -1), (0, 2), (1, 3)]


class TestWindow:
    @settings(max_examples=80, deadline=None)
    @given(
        items=tables(ints) | tables(floats),
        window=st.sampled_from(WINDOWS),
        attribute=st.sampled_from(["t", "x"]),
        name=st.sampled_from(["sum", "count", "avg", "min", "max"]),
    )
    def test_matches_dict_window(self, items, window, attribute, name):
        source = measure_table(FINE, items)
        low, high = window
        got = window_columns(
            ColumnTable.from_table(source),
            SCHEMA.attribute_index(attribute),
            low,
            high,
            name,
        )
        want = sibling_window(
            source, SiblingWindow(attribute, low, high), get_function(name)
        )
        assert got is not None
        assert typed(got) == typed(want)

    def test_strictly_previous_window_drops_first_anchors(self):
        source = measure_table(
            FINE, {(0, 0, 5): 1, (0, 0, 6): 2, (0, 0, 9): 3, (1, 0, 6): 4}
        )
        got = window_columns(ColumnTable.from_table(source), 2, -1, -1, "sum")
        assert got.to_table(FINE).values == {(0, 0, 6): 1}

    def test_windows_stay_inside_their_group(self):
        # Adjacent groups whose positions would overlap a wide window.
        items = {(x, 0, t): 1 for x in range(4) for t in (0, 63)}
        source = measure_table(FINE, items)
        got = window_columns(
            ColumnTable.from_table(source), 2, -100, 100, "count"
        )
        assert set(got.to_table(FINE).values.values()) == {2}


def _align_workflow():
    builder = WorkflowBuilder(SCHEMA)
    builder.basic("fine", over={"x": "value", "t": "tick"}, field="v",
                  aggregate="sum")
    builder.basic("mid", over={"x": "value", "t": "tick"}, field="v",
                  aggregate="count")
    builder.basic("coarse", over={"x": "four", "t": "span"}, field="v",
                  aggregate="sum")
    (
        builder.composite("lift", over={"x": "value", "t": "tick"})
        .from_self("fine")
        .from_parent("coarse")
        .combine(RATIO)
    )
    (
        builder.composite("gap", over={"x": "value", "t": "tick"})
        .from_parent("coarse")
        .from_self("fine")
        .from_self("mid")
        .combine(expression(lambda a, b, c: a - b * c, 3, "gap"))
    )
    builder.composite(
        "spread", over={"x": "value", "t": "tick"}
    ).from_parent("coarse")
    return builder.build()


ALIGN_WORKFLOW = _align_workflow()
fine_coords = st.tuples(st.integers(0, 15), st.just(0), st.integers(0, 63))
coarse_coords = st.tuples(st.integers(0, 3), st.just(0), st.integers(0, 15))


class TestAlign:
    @settings(max_examples=60, deadline=None)
    @given(
        fine=st.dictionaries(fine_coords, ints, max_size=40),
        mid=st.dictionaries(fine_coords, st.integers(1, 9), max_size=40),
        coarse=st.dictionaries(coarse_coords, ints, max_size=12)
        | st.dictionaries(coarse_coords, floats, max_size=12),
        anchors=st.lists(fine_coords, max_size=30),
    )
    def test_matches_compute_composite(self, fine, mid, coarse, anchors):
        sources = {
            "fine": measure_table(ALIGN_WORKFLOW.measure("fine").granularity,
                                  fine),
            "mid": measure_table(ALIGN_WORKFLOW.measure("mid").granularity,
                                 mid),
            "coarse": measure_table(
                ALIGN_WORKFLOW.measure("coarse").granularity, coarse
            ),
        }
        columns = {
            name: ColumnTable.from_table(table)
            for name, table in sources.items()
        }
        anchor_rows = np.array(sorted(set(anchors)), dtype=np.int64).reshape(
            -1, 3
        )
        for name in ("lift", "gap", "spread"):
            measure = ALIGN_WORKFLOW.measure(name)
            got = CompositePlan(measure).evaluate(columns, anchor_rows)
            want = compute_composite(measure, sources, set(anchors))
            assert got is not None, name
            assert typed(got) == typed(want), name


SPECIALS = [0, 1, -1, 7, -7, 2**53, -(2**53), 2**53 + 1, 2**62]
FLOAT_SPECIALS = [0.0, -0.0, 0.1, -2.5, 1e308, math.inf, -math.inf]


def _python(expr, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return value_column(
        [expr(x, y) for x, y in zip(a.tolist(), b.tolist())]
    )


class TestExpressions:
    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.sampled_from(SPECIALS) | ints, min_size=1,
                   max_size=20),
        b=st.lists(st.sampled_from(SPECIALS) | ints, min_size=1,
                   max_size=20),
        float_a=st.booleans(),
        float_b=st.booleans(),
        expr=st.sampled_from([RATIO, DIFFERENCE, PRODUCT, TOTAL]),
        data=st.data(),
    )
    def test_matches_python(self, a, b, float_a, float_b, expr, data):
        size = min(len(a), len(b))
        left = np.array(a[:size], dtype=np.int64)
        right = np.array(b[:size], dtype=np.int64)
        if float_a:
            left = np.array(
                data.draw(st.lists(st.sampled_from(FLOAT_SPECIALS) | floats,
                                   min_size=size, max_size=size)),
                dtype=np.float64,
            )
        if float_b:
            right = np.array(
                data.draw(st.lists(st.sampled_from(FLOAT_SPECIALS) | floats,
                                   min_size=size, max_size=size)),
                dtype=np.float64,
            )
        got = combine_columns(expr, [left, right])
        if got is None:
            # Declined: only where an int operand leaves the exact range.
            assert any(
                column.dtype.kind == "i" and np.abs(column).max() > 2**53
                for column in (left, right)
            ) or expr is PRODUCT
            return
        want = _python(expr, left, right)
        assert [(type(v), repr(v)) for v in got.tolist()] == [
            (type(v), repr(v)) for v in want.tolist()
        ]

    def test_ratio_zero_rules(self):
        left = np.array([0, 5, -5, 3, 0], dtype=np.int64)
        right = np.array([0, 0, 0, 4, -5], dtype=np.int64)
        got = combine_columns(RATIO, [left, right]).tolist()
        assert [repr(v) for v in got] == [
            "0.0", "inf", "-inf", "0.75", "-0.0",
        ]

    def test_int_ratio_beyond_float_range_declines(self):
        big = np.array([2**53 + 1], dtype=np.int64)
        assert combine_columns(RATIO, [big, np.array([3])]) is None

    def test_product_overflow_declines(self):
        big = np.array([2**32, 3], dtype=np.int64)
        assert combine_columns(PRODUCT, [big, big]) is None
        small = np.array([2**20, -3], dtype=np.int64)
        assert combine_columns(PRODUCT, [small, small]).tolist() == [
            2**40, 9,
        ]

    def test_identity_and_user_expressions_keep_types(self):
        column = np.array([1, 2], dtype=np.int64)
        assert combine_columns(IDENTITY, [column]) is column
        mixed = expression(lambda a: a if a % 2 else a / 2, 1, "half_even")
        got = combine_columns(mixed, [column])
        assert got.dtype == object
        assert [type(v) for v in got.tolist()] == [int, float]


class TestOwnershipMask:
    @pytest.mark.parametrize("level", ["tick", "span"])
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 15),
                      st.integers(0, 7), st.integers(0, 63)),
            max_size=40,
        ),
        factor=st.integers(1, 5),
    )
    def test_agrees_with_the_predicate(self, level, rows, factor):
        key = DistributionKey.of(SCHEMA, {"t": (level, -3, 1)})
        scheme = BlockScheme(key, {"t": factor})
        result_filter = scheme.make_result_filter(FINE)
        last = scheme.max_block_index("t")
        block_keys = [(0, 0, block % (last + 1)) for block in range(6)]
        matrix = np.array(
            [row[1:] for row in rows], dtype=np.int64
        ).reshape(-1, 3)
        blocks = np.array([row[0] for row in rows], dtype=np.int64)
        got = result_filter.mask(block_keys, blocks, matrix)
        want = [
            result_filter(block_keys[row[0]])(row[1:]) for row in rows
        ]
        assert got.tolist() == want
