"""Tests for measure tables and result sets."""

import copy
import pickle
from types import MappingProxyType

import pytest

from repro.cube.regions import Granularity
from repro.local.measure_table import MeasureTable, ResultSet


@pytest.fixture
def fine(tiny_schema):
    return Granularity.of(tiny_schema, {"x": "value", "t": "tick"})


@pytest.fixture
def coarse(tiny_schema):
    return Granularity.of(tiny_schema, {"x": "four"})


class TestMeasureTable:
    def test_mapping_protocol(self, fine):
        table = MeasureTable(fine, {(1, 2): 10})
        table[(3, 4)] = 20
        assert len(table) == 2
        assert (1, 2) in table
        assert table[(1, 2)] == 10
        assert table.get((9, 9)) is None
        assert set(table.coords()) == {(1, 2), (3, 4)}

    def test_lookup_parent(self, fine, coarse):
        parents = MeasureTable(coarse, {(1, 0): 100})
        child = MeasureTable(fine)
        assert child.lookup_parent((7, 3), parents) == 100
        assert child.lookup_parent((0, 3), parents) is None

    def test_filtered(self, fine):
        table = MeasureTable(fine, {(1, 2): 10, (3, 4): 20})
        kept = table.filtered(lambda coords: coords[0] == 1)
        assert dict(kept.items()) == {(1, 2): 10}

    def test_merge_disjoint(self, fine):
        a = MeasureTable(fine, {(1, 2): 10})
        b = MeasureTable(fine, {(3, 4): 20})
        a.merge_disjoint(b)
        assert len(a) == 2

    def test_merge_overlap_is_error(self, fine):
        a = MeasureTable(fine, {(1, 2): 10})
        b = MeasureTable(fine, {(1, 2): 11})
        with pytest.raises(ValueError, match="overlap"):
            a.merge_disjoint(b)

    def test_merge_granularity_mismatch(self, fine, coarse):
        with pytest.raises(ValueError, match="granularities"):
            MeasureTable(fine).merge_disjoint(MeasureTable(coarse))

    def test_regions_iteration(self, fine):
        table = MeasureTable(fine, {(1, 2): 10})
        [(region, value)] = list(table.regions())
        assert region.coords == (1, 2) and value == 10



class TestReadOnlyTable:
    def test_wraps_without_copying_and_refuses_writes(self, fine):
        rows = {(1, 2): 10}
        table = MeasureTable.read_only(fine, rows)
        assert isinstance(table.values, MappingProxyType)
        rows[(3, 4)] = 20  # a view: the owner's change shows through
        assert len(table) == 2 and table[(3, 4)] == 20
        with pytest.raises(TypeError):
            table[(5, 6)] = 30
        with pytest.raises(TypeError):
            table.values[(5, 6)] = 30
        with pytest.raises(TypeError, match="read-only"):
            table.merge_disjoint(MeasureTable(fine, {(7, 8): 1}))
        assert table.filtered(lambda c: c[0] == 1).values == {(1, 2): 10}

    def test_compares_and_iterates_like_a_built_table(self, fine):
        rows = {(2, 0): 1, (1, 0): 2}
        shared = ResultSet({"m": MeasureTable.read_only(fine, rows)})
        built = ResultSet({"m": MeasureTable(fine, rows)})
        assert shared == built and built == shared
        assert shared.as_rows() == built.as_rows()
        merged = ResultSet()
        merged.merge_disjoint(shared)
        merged["m"][(9, 9)] = 3  # merging copied the rows
        assert (9, 9) not in rows

    @pytest.mark.parametrize(
        "protocol", range(2, pickle.HIGHEST_PROTOCOL + 1)
    )
    def test_pickles_and_stays_read_only(self, fine, protocol):
        table = MeasureTable.read_only(fine, {(1, 2): 10})
        restored = pickle.loads(pickle.dumps(table, protocol))
        assert isinstance(restored.values, MappingProxyType)
        assert restored.granularity.levels == fine.levels
        assert restored.values == {(1, 2): 10}
        built = pickle.loads(pickle.dumps(MeasureTable(fine, {(1, 2): 10})))
        assert type(built.values) is dict
        assert copy.deepcopy(table).values == table.values


class TestResultSet:
    def test_rows_are_sorted(self, fine):
        rs = ResultSet(
            {
                "b": MeasureTable(fine, {(2, 0): 1, (1, 0): 2}),
                "a": MeasureTable(fine, {(0, 0): 3}),
            }
        )
        rows = rs.as_rows()
        assert rows == [
            ("a", (0, 0), 3),
            ("b", (1, 0), 2),
            ("b", (2, 0), 1),
        ]
        assert rs.total_rows() == 3

    def test_equality(self, fine):
        a = ResultSet({"m": MeasureTable(fine, {(1, 2): 10})})
        b = ResultSet({"m": MeasureTable(fine, {(1, 2): 10})})
        c = ResultSet({"m": MeasureTable(fine, {(1, 2): 11})})
        assert a == b
        assert a != c
        assert a != ResultSet({})

    def test_merge_disjoint(self, fine):
        a = ResultSet({"m": MeasureTable(fine, {(1, 2): 10})})
        b = ResultSet({"m": MeasureTable(fine, {(3, 4): 20})})
        a.merge_disjoint(b)
        assert a.total_rows() == 2
        with pytest.raises(ValueError):
            a.merge_disjoint(b)
