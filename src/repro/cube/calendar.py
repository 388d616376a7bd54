"""Irregular (calendar) hierarchies.

The paper's range-conversion examples are calendar arithmetic: a
``T:day(-1,+6)`` annotation becomes ``T:month(-1,+3)`` because a ten-day
window spans at most two months and a sixty-day window at most three.
Months do not have a fixed fanout over days, so :class:`UniformHierarchy`
cannot express them; :class:`IrregularHierarchy` supports levels whose
buckets have varying sizes, with the conservative range conversion the
paper outlines:

* converting an offset of ``k`` fine units up to a coarse level uses the
  *smallest* coarse bucket: ``k`` fine units cross at most
  ``ceil(k / min_bucket)`` coarse boundaries;
* converting down uses the *largest* bucket, plus the slack for the
  anchor sitting anywhere inside its own bucket.

Both directions always over-cover, so feasibility is preserved exactly
as for uniform hierarchies.
"""

from __future__ import annotations

import datetime
from bisect import bisect_right
from typing import Mapping, Sequence

from repro.cube.domains import ALL, ALL_VALUE, DomainError, Hierarchy, Level


class IrregularHierarchy(Hierarchy):
    """A numeric hierarchy whose levels have variable bucket sizes.

    Args:
        name: Hierarchy name.
        base_cardinality: Number of base-level values ``[0, card)``.
        level_boundaries: Mapping from level name to the sorted list of
            *start offsets* of that level's buckets (the first entry must
            be 0 and offsets must be strictly increasing and below the
            base cardinality).  Levels must be listed fine-to-coarse and
            must nest: every coarser boundary must also be a boundary of
            every finer level.
        base_level_name: Name of the unit base level.
    """

    def __init__(
        self,
        name: str,
        base_cardinality: int,
        level_boundaries: Mapping[str, Sequence[int]],
        base_level_name: str = "unit",
    ):
        if base_cardinality <= 0:
            raise DomainError("base_cardinality must be positive")
        levels = [Level(base_level_name, 0, 1, base_cardinality)]
        self._boundaries: dict[str, list[int]] = {
            base_level_name: list(range(base_cardinality))
        }
        previous: list[int] = self._boundaries[base_level_name]
        for depth, (level_name, raw) in enumerate(level_boundaries.items(), 1):
            boundaries = list(raw)
            if not boundaries or boundaries[0] != 0:
                raise DomainError(
                    f"level {level_name!r}: boundaries must start at 0"
                )
            if any(b <= a for a, b in zip(boundaries, boundaries[1:])):
                raise DomainError(
                    f"level {level_name!r}: boundaries must be increasing"
                )
            if boundaries[-1] >= base_cardinality:
                raise DomainError(
                    f"level {level_name!r}: boundary {boundaries[-1]} is "
                    f"outside the base domain [0, {base_cardinality})"
                )
            missing = set(boundaries) - set(previous)
            if missing:
                raise DomainError(
                    f"level {level_name!r} does not nest into the previous "
                    f"level: boundaries {sorted(missing)[:3]} are not "
                    "boundaries there"
                )
            self._boundaries[level_name] = boundaries
            levels.append(
                Level(level_name, depth, None, cardinality=len(boundaries))
            )
            previous = boundaries
        levels.append(Level(ALL, len(levels), None, 1))
        super().__init__(name, levels)
        self.base_cardinality = base_cardinality

    @property
    def supports_ranges(self) -> bool:
        return True

    # -- bucket geometry ---------------------------------------------------

    def _bucket_sizes(self, level_name: str) -> tuple[int, int]:
        """(smallest, largest) bucket size of a level, in base units."""
        boundaries = self._boundaries[level_name]
        edges = boundaries + [self.base_cardinality]
        sizes = [b - a for a, b in zip(edges, edges[1:])]
        return min(sizes), max(sizes)

    def bucket_of(self, base_value: int, level_name: str) -> int:
        boundaries = self._boundaries[level_name]
        return bisect_right(boundaries, base_value) - 1

    def _to_base(self, value: int, level_name: str) -> int:
        """Start offset of a level bucket, in base units."""
        boundaries = self._boundaries[level_name]
        if not 0 <= value < len(boundaries):
            raise DomainError(
                f"{self.name}.{level_name} has no bucket {value}"
            )
        return boundaries[value]

    # -- Hierarchy API -------------------------------------------------------

    def map_value(self, value: int, from_level: str, to_level: str) -> int:
        src, dst = self.level(from_level), self.level(to_level)
        if src.depth > dst.depth:
            raise DomainError(
                f"cannot map {self.name}.{from_level} down to finer "
                f"level {to_level}"
            )
        if dst.is_all:
            return ALL_VALUE
        if src.depth == dst.depth:
            return value
        return self.bucket_of(self._to_base(value, from_level), to_level)

    def base_mapper(self, to_level: str):
        level = self.level(to_level)
        if level.is_all:
            return lambda _value: ALL_VALUE
        if level.depth == 0:
            return lambda value: value
        boundaries = self._boundaries[to_level]

        def mapper(value: int, boundaries=boundaries) -> int:
            return bisect_right(boundaries, value) - 1

        return mapper

    def convert_range(
        self, low: int, high: int, from_level: str, to_level: str
    ) -> tuple[int, int]:
        if low > high:
            raise DomainError(f"invalid range ({low}, {high}): low > high")
        src, dst = self.level(from_level), self.level(to_level)
        if src.is_all or dst.is_all:
            raise DomainError("cannot convert ranges through the ALL level")
        if src.depth == dst.depth:
            return (low, high)
        if src.depth < dst.depth:
            # Fine -> coarse: k fine units cross at most ceil(k*src_max /
            # dst_min) coarse boundaries (each fine unit spans up to
            # src_max base units; each coarse bucket at least dst_min).
            _src_min, src_max = self._bucket_sizes(from_level)
            dst_min, _dst_max = self._bucket_sizes(to_level)
            new_low = -_ceil_div(abs(low) * src_max, dst_min) if low < 0 else 0
            new_high = _ceil_div(high * src_max, dst_min) if high > 0 else 0
            return (new_low, new_high)
        # Coarse -> fine: k coarse units span at most k*src_max base
        # units, plus the anchor's own bucket in either direction; each
        # fine unit covers at least dst_min base units.
        _src_min, src_max = self._bucket_sizes(from_level)
        dst_min, _dst_max = self._bucket_sizes(to_level)
        reach_low = abs(low) * src_max + (src_max - 1) if low < 0 else src_max - 1
        reach_high = high * src_max + (src_max - 1) if high > 0 else src_max - 1
        return (-_ceil_div(reach_low, dst_min), _ceil_div(reach_high, dst_min))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def calendar_hierarchy(
    name: str,
    start: datetime.date,
    end: datetime.date,
    with_weeks: bool = False,
) -> IrregularHierarchy:
    """day -> (week) -> month -> quarter -> year over ``[start, end)``.

    Days are numbered from *start* (day 0).  Month, quarter and year
    buckets are clipped to the covered range, so the first bucket of each
    level starts at day 0 even mid-month -- exactly how a data warehouse
    would partition a bounded fact table.
    """
    if end <= start:
        raise DomainError("calendar range must be non-empty")
    n_days = (end - start).days

    def boundary_days(matches) -> list[int]:
        days = [0]
        current = start + datetime.timedelta(days=1)
        while current < end:
            if matches(current):
                days.append((current - start).days)
            current += datetime.timedelta(days=1)
        return days

    levels: dict[str, list[int]] = {}
    if with_weeks:
        levels["week"] = boundary_days(lambda d: d.weekday() == 0)
    levels["month"] = boundary_days(lambda d: d.day == 1)
    levels["quarter"] = boundary_days(
        lambda d: d.day == 1 and d.month in (1, 4, 7, 10)
    )
    levels["year"] = boundary_days(lambda d: d.day == 1 and d.month == 1)
    if with_weeks:
        # Weeks do not nest into months; expose them as an alternative
        # fine level only when they still nest (they generally do not),
        # so reject the combination explicitly rather than mis-derive.
        raise DomainError(
            "weeks do not nest into months; build a separate hierarchy "
            "with only week boundaries instead"
        )
    return IrregularHierarchy(
        name, n_days, levels, base_level_name="day"
    )


def week_hierarchy(
    name: str, start: datetime.date, end: datetime.date
) -> IrregularHierarchy:
    """day -> week over ``[start, end)`` (weeks begin on Monday)."""
    if end <= start:
        raise DomainError("calendar range must be non-empty")
    n_days = (end - start).days
    days = [0]
    current = start + datetime.timedelta(days=1)
    while current < end:
        if current.weekday() == 0:
            days.append((current - start).days)
        current += datetime.timedelta(days=1)
    return IrregularHierarchy(
        name, n_days, {"week": days}, base_level_name="day"
    )
