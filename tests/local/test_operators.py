"""Tests for the relationship operators over measure tables."""

import pytest
from hypothesis import given, strategies as st

from repro.cube.regions import Granularity
from repro.local.measure_table import MeasureTable
from repro.local.operators import (
    align_candidates,
    rollup,
    rollup_partials,
    sibling_window,
)
from repro.query.functions import get_function
from repro.query.measures import SiblingWindow


@pytest.fixture
def fine(tiny_schema):
    return Granularity.of(tiny_schema, {"x": "value", "t": "tick"})


@pytest.fixture
def coarse(tiny_schema):
    return Granularity.of(tiny_schema, {"x": "four", "t": "span"})


class TestRollup:
    def test_sums_children(self, fine, coarse):
        source = MeasureTable(
            fine, {(0, 0): 1, (1, 1): 2, (3, 3): 4, (4, 0): 8}
        )
        rolled = rollup(source, coarse, get_function("sum"))
        # x in {0,1,3} -> four 0; t in {0,1,3} -> span 0; (4,0) -> (1,0).
        assert dict(rolled.items()) == {(0, 0): 7, (1, 0): 8}

    def test_rejects_non_generalization(self, fine, coarse):
        source = MeasureTable(coarse, {(0, 0): 1})
        with pytest.raises(ValueError, match="generalization"):
            rollup(source, fine, get_function("sum"))

    @given(
        entries=st.dictionaries(
            st.tuples(st.integers(0, 15), st.integers(0, 31)),
            st.integers(-50, 50),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_bruteforce(self, tiny_schema, entries):
        fine = Granularity.of(tiny_schema, {"x": "value", "t": "tick"})
        coarse = Granularity.of(tiny_schema, {"x": "four"})
        rolled = rollup(
            MeasureTable(fine, entries), coarse, get_function("sum")
        )
        expected = {}
        for (x, _t), value in entries.items():
            key = (x // 4, 0)
            expected[key] = expected.get(key, 0) + value
        assert dict(rolled.items()) == expected


class TestRollupPartials:
    def test_merges_states(self, fine, coarse):
        avg = get_function("avg")
        partials = {(0, 0): [10.0, 2], (1, 1): [20.0, 3], (4, 0): [5.0, 1]}
        merged = rollup_partials(fine, partials, coarse, avg)
        assert merged[(0, 0)] == [30.0, 5]
        assert merged[(1, 0)] == [5.0, 1]
        assert avg.finalize(merged[(0, 0)]) == pytest.approx(6.0)


class TestSiblingWindow:
    def test_trailing_window(self, fine):
        source = MeasureTable(
            fine, {(0, 0): 1, (0, 1): 2, (0, 2): 4, (0, 5): 8}
        )
        window = SiblingWindow("t", -1, 0)
        result = sibling_window(source, window, get_function("sum"))
        assert dict(result.items()) == {
            (0, 0): 1,
            (0, 1): 3,
            (0, 2): 6,
            (0, 5): 8,  # gap: no neighbor at t=4
        }

    def test_window_does_not_cross_other_attributes(self, fine):
        source = MeasureTable(fine, {(0, 1): 1, (1, 1): 10, (0, 2): 2})
        window = SiblingWindow("t", -1, 0)
        result = sibling_window(source, window, get_function("sum"))
        assert result[(0, 2)] == 3  # only x=0 values
        assert result[(1, 1)] == 10

    def test_centered_window(self, fine):
        source = MeasureTable(fine, {(0, t): 1 for t in range(5)})
        window = SiblingWindow("t", -1, 1)
        result = sibling_window(source, window, get_function("count"))
        assert result[(0, 0)] == 2
        assert result[(0, 2)] == 3
        assert result[(0, 4)] == 2

    @given(
        entries=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 31)),
            st.integers(1, 9),
            min_size=1,
            max_size=40,
        ),
        low=st.integers(-4, 0),
        high=st.integers(0, 4),
    )
    def test_matches_bruteforce(self, tiny_schema, entries, low, high):
        fine = Granularity.of(tiny_schema, {"x": "value", "t": "tick"})
        source = MeasureTable(fine, entries)
        window = SiblingWindow("t", low, high)
        result = sibling_window(source, window, get_function("sum"))
        for (x, t), _v in entries.items():
            expected = sum(
                value
                for (ox, ot), value in entries.items()
                if ox == x and t + low <= ot <= t + high
            )
            assert result[(x, t)] == expected
        assert set(result.coords()) == set(entries)


class TestAlignCandidates:
    def test_intersection_of_anchored_edges(self, fine):
        a = MeasureTable(fine, {(0, 0): 1, (0, 1): 2})
        b = MeasureTable(fine, {(0, 1): 3, (0, 2): 4})
        candidates = align_candidates(fine, [(a, False), (b, False)])
        assert candidates == {(0, 1)}

    def test_align_edges_do_not_constrain(self, fine, coarse):
        a = MeasureTable(fine, {(0, 0): 1})
        parents = MeasureTable(coarse, {(0, 0): 9})
        candidates = align_candidates(fine, [(a, False), (parents, True)])
        assert candidates == {(0, 0)}

    def test_fallback_for_pure_align(self, fine, coarse):
        parents = MeasureTable(coarse, {(0, 0): 9})
        candidates = align_candidates(
            fine, [(parents, True)], fallback_coords=[(1, 1)]
        )
        assert candidates == {(1, 1)}

    def test_no_candidates_available(self, fine, coarse):
        parents = MeasureTable(coarse, {(0, 0): 9})
        assert align_candidates(fine, [(parents, True)]) is None


class TestWindowFastPaths:
    """The kernel window sweep must agree with generic re-aggregation."""

    @given(
        entries=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 31)),
            st.integers(-20, 20),
            min_size=1,
            max_size=50,
        ),
        low=st.integers(-5, 2),
        high=st.integers(-2, 5),
        name=st.sampled_from(["sum", "count", "avg"]),
    )
    def test_matches_generic(self, tiny_schema, entries, low, high, name):
        from hypothesis import assume

        from repro.cube.regions import Granularity
        from repro.local.operators import _window_generic

        assume(low <= high)
        fine = Granularity.of(tiny_schema, {"x": "value", "t": "tick"})
        source = MeasureTable(fine, entries)
        window = SiblingWindow("t", low, high)
        aggregate = get_function(name)
        fast = sibling_window(source, window, aggregate)
        # Generic path, forced:
        from collections import defaultdict

        groups = defaultdict(list)
        for coords, value in entries.items():
            groups[(coords[0],)].append((coords[1], value))
        expected = {}
        for key, group in groups.items():
            group.sort()
            positions = [p for p, _ in group]
            values = [v for _, v in group]
            for position, value in _window_generic(
                positions, values, window, aggregate
            ):
                expected[(key[0], position)] = value
        assert set(fast.coords()) == set(expected)
        for coords, value in expected.items():
            if isinstance(value, float):
                assert fast[coords] == pytest.approx(value)
            else:
                assert fast[coords] == value

    def test_strictly_forward_window(self, tiny_schema):
        from repro.cube.regions import Granularity

        fine = Granularity.of(tiny_schema, {"x": "value", "t": "tick"})
        # From base 2**62 on the positions pass the kernel's int64
        # bound, so the generic fold answers, with the same values.
        for base in (0, 2**62):
            source = MeasureTable(
                fine, {(0, base): 1, (0, base + 1): 2, (0, base + 5): 4}
            )
            window = SiblingWindow("t", 1, 3)
            for name, expected in (("sum", 2), ("count", 1), ("avg", 2.0)):
                result = sibling_window(source, window, get_function(name))
                # t=0 sees t=1; t=1 sees nothing in (2..4); t=5 sees
                # nothing.
                assert dict(result.items()) == {(0, base): expected}
                assert type(result[(0, base)]) is type(expected)


class TestPrefixExactnessBound:
    def test_huge_int_windows_take_generic_path(self, tiny_schema):
        """Values whose totals exceed 2**53 must not use the kernel."""
        fine = Granularity.of(tiny_schema, {"x": "value", "t": "tick"})
        source = MeasureTable(
            fine, {(0, 0): 2**53, (0, 1): 1, (0, 2): 1}
        )
        window = SiblingWindow("t", -1, 0)
        result = sibling_window(source, window, get_function("sum"))
        assert result[(0, 1)] == 2**53 + 1  # exact, no float absorption
        assert result[(0, 2)] == 2
