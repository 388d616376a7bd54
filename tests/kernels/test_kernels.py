"""The NumPy kernels against brute-force references.

Every primitive folds left-to-right over sorted runs, so integer
results are exact; the operators built on them must match the generic
per-slice fold bit for bit.
"""

from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from repro import kernels


def _brute_window(positions, values, low, high, op):
    """Reference sweep: re-aggregate every window slice in Python."""
    out = []
    for anchor in positions:
        members = [
            v
            for p, v in zip(positions, values)
            if anchor + low <= p <= anchor + high
        ]
        if not members:
            out.append(None)
        elif op == "sum":
            out.append(sum(members))
        elif op == "count":
            out.append(len(members))
        elif op == "min":
            out.append(min(members))
        elif op == "max":
            out.append(max(members))
    return out


class TestNumpyReference:
    def test_segment_reduce_folds(self):
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        starts = np.array([0, 3, 5], dtype=np.int64)
        assert kernels.segment_reduce(values, starts, "sum").tolist() == [
            8, 6, 17,
        ]
        assert kernels.segment_reduce(values, starts, "min").tolist() == [
            1, 1, 2,
        ]
        assert kernels.segment_reduce(values, starts, "max").tolist() == [
            4, 5, 9,
        ]

    def test_segment_reduce_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(kernels.segment_reduce(empty, empty, "sum")) == 0

    def test_segment_counts(self):
        starts = np.array([0, 2, 3], dtype=np.int64)
        assert kernels.segment_counts(starts, 7).tolist() == [2, 1, 4]

    @pytest.mark.parametrize("blocks", [[2, 0, 3], [3, 1], [], [1, 1]])
    def test_take_blocks_regroups_block_major_entries(self, blocks):
        counts = [2, 0, 3, 1]
        stream = [
            (block, n) for block, count in enumerate(counts)
            for n in range(count)
        ]
        taken = kernels.take_blocks(
            np.array(counts), np.array(blocks, dtype=np.int64)
        )
        assert [stream[i] for i in taken.tolist()] == [
            entry for block in blocks for entry in stream if entry[0] == block
        ]

    def test_row_boundaries(self):
        rows = np.array([[0, 0], [0, 0], [0, 1], [2, 1]], dtype=np.int64)
        assert kernels.row_boundaries(rows).tolist() == [
            True, False, True, True,
        ]

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
    @pytest.mark.parametrize("low,high", [(-1, 1), (-3, -1), (0, 0), (2, 5)])
    def test_window_reduce_matches_brute_force(self, op, low, high):
        rng = np.random.default_rng(7)
        positions = np.sort(
            rng.choice(np.arange(40), size=17, replace=False)
        ).astype(np.int64)
        values = rng.integers(-50, 50, size=17).astype(np.int64)
        mask, out = kernels.window_reduce(positions, values, low, high, op)
        expected = _brute_window(
            positions.tolist(), values.tolist(), low, high, op
        )
        for index, want in enumerate(expected):
            if want is None:
                assert not mask[index]
            else:
                assert mask[index]
                assert out[index] == want

    def test_window_reduce_empty(self):
        empty = np.empty(0, dtype=np.int64)
        mask, out = kernels.window_reduce(empty, empty, -1, 1, "sum")
        assert len(mask) == 0 and len(out) == 0

    def test_pack_rows_orders_like_lexsort(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(-9, 9, size=(64, 3)).astype(np.int64)
        packed = kernels.pack_rows(matrix)
        assert packed is not None
        keys, low_bits = packed
        assert low_bits == 0
        by_pack = np.argsort(keys, kind="stable")
        by_lex = np.lexsort(matrix.T[::-1])
        assert by_pack.tolist() == by_lex.tolist()

    def test_pack_rows_split_recovers_prefix_key(self):
        matrix = np.array(
            [[1, 7, 2], [0, 3, 9], [1, 7, 2], [2, 0, 0]], dtype=np.int64
        )
        packed = kernels.pack_rows(matrix, split=1)
        assert packed is not None
        keys, low_bits = packed
        prefix = keys >> low_bits
        # Rows sharing the first column share the recovered prefix key.
        assert prefix[0] == prefix[2]
        assert len({int(prefix[i]) for i in (0, 1, 3)}) == 3

    def test_pack_rows_overflow_returns_none(self):
        wide = np.array([[0, 0], [2**40, 2**40]], dtype=np.int64)
        assert kernels.pack_rows(wide) is None

    def test_pack_rows_empty(self):
        empty = np.zeros((0, 2), dtype=np.int64)
        keys, low_bits = kernels.pack_rows(empty)
        assert len(keys) == 0 and low_bits == 0


class TestDispatchThroughOperators:
    """``sibling_window`` through the kernels equals the slice fold."""

    def test_sibling_window_matches_slice_fold(self):
        from repro.cube.domains import UniformHierarchy
        from repro.cube.records import Attribute, Schema
        from repro.cube.regions import Granularity
        from repro.local.measure_table import MeasureTable
        from repro.local.operators import sibling_window
        from repro.query.functions import get_function
        from repro.query.measures import SiblingWindow

        x = UniformHierarchy("x", {"value": 1}, base_cardinality=4)
        t = UniformHierarchy("t", {"tick": 1}, base_cardinality=100)
        schema = Schema([Attribute("x", x), Attribute("t", t)], facts=["v"])
        granularity = Granularity.of(schema, {"x": "value", "t": "tick"})
        rng = np.random.default_rng(5)
        cells = {
            (int(rng.integers(0, 4)), int(tick)): int(
                rng.integers(-20, 20)
            )
            for tick in rng.choice(100, size=30, replace=False)
        }
        table = MeasureTable(granularity, cells)
        window = SiblingWindow("t", -3, -1)
        for name in ("sum", "count", "avg", "min", "max"):
            aggregate = get_function(name)
            expected = {}
            for group in range(4):
                entries = sorted(
                    (tick, value)
                    for (key, tick), value in cells.items()
                    if key == group
                )
                ticks = [tick for tick, _value in entries]
                values = [value for _tick, value in entries]
                for tick in ticks:
                    start = bisect_left(ticks, tick + window.low)
                    stop = bisect_right(ticks, tick + window.high)
                    if start < stop:
                        expected[(group, tick)] = aggregate.aggregate(
                            values[start:stop]
                        )
            outcome = sibling_window(table, window, aggregate)
            assert dict(outcome.items()) == expected, name
