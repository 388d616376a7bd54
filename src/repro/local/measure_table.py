"""Measure tables: the intermediate result of evaluating one measure.

A measure table maps region coordinates (at the measure's granularity) to
the measure value -- the materialized form of a region set's measures
inside one evaluation block.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.cube.regions import Granularity, Region


class MeasureTable:
    """Coordinates -> value mapping at a fixed granularity."""

    __slots__ = ("granularity", "values")

    def __init__(
        self,
        granularity: Granularity,
        values: Mapping[tuple, object] | None = None,
    ):
        self.granularity = granularity
        self.values: dict[tuple, object] = dict(values or {})

    @classmethod
    def read_only(
        cls, granularity: Granularity, values: Mapping[tuple, object]
    ) -> "MeasureTable":
        """A table over *values* itself, shared and not copied.

        ``values`` becomes a :class:`types.MappingProxyType`, so writes
        through the table or its ``values`` raise :class:`TypeError`;
        ``dict(table.values)`` gives a copy that can change.  The
        measure cache hands out its stored rows this way.
        """
        table = cls.__new__(cls)
        table.granularity = granularity
        table.values = MappingProxyType(values)
        return table

    def __reduce_ex__(self, protocol):
        if isinstance(self.values, MappingProxyType):
            # A mappingproxy does not pickle: ship the rows as a dict
            # and wrap them read-only again on the other side.
            return (
                MeasureTable.read_only,
                (self.granularity, dict(self.values)),
            )
        return super().__reduce_ex__(protocol)

    # -- mapping protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, coords: tuple) -> bool:
        return coords in self.values

    def __getitem__(self, coords: tuple):
        return self.values[coords]

    def get(self, coords: tuple, default=None):
        return self.values.get(coords, default)

    def __setitem__(self, coords: tuple, value) -> None:
        self.values[coords] = value

    def coords(self) -> Iterable[tuple]:
        return self.values.keys()

    def items(self) -> Iterable[tuple[tuple, object]]:
        return self.values.items()

    def regions(self) -> Iterator[tuple[Region, object]]:
        """Iterate ``(Region, value)`` pairs (for presentation)."""
        for coords, value in self.values.items():
            yield Region(self.granularity, coords), value

    # -- transformations --------------------------------------------------------

    def lookup_parent(self, coords: tuple, source: "MeasureTable"):
        """Value of the containing region of *coords* in *source*.

        *source* must be at a generalization of this table's granularity.
        Returns ``None`` when the parent region has no value.
        """
        parent = self.granularity.map_coords(coords, source.granularity)
        return source.values.get(parent)

    def filtered(self, predicate) -> "MeasureTable":
        """A copy keeping only coordinates where ``predicate(coords)``."""
        return MeasureTable(
            self.granularity,
            {
                coords: value
                for coords, value in self.values.items()
                if predicate(coords)
            },
        )

    def merge_disjoint(self, other: "MeasureTable") -> None:
        """Union with *other*; overlapping coordinates are an error.

        Used when combining per-block results: a feasible distribution
        scheme guarantees duplicate-free local results, so an overlap here
        signals an infeasible key or a filtering bug.
        """
        if other.granularity != self.granularity:
            raise ValueError("cannot merge tables of different granularities")
        if isinstance(self.values, MappingProxyType):
            raise TypeError("cannot merge into a read-only measure table")
        overlap = self.values.keys() & other.values.keys()
        if overlap:
            raise ValueError(
                f"measure tables overlap on {len(overlap)} regions, e.g. "
                f"{next(iter(overlap))!r}; the distribution scheme produced "
                "duplicated results"
            )
        self.values.update(other.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MeasureTable({self.granularity}, {len(self.values)} regions)"


class ResultSet:
    """The full answer of a composite query: one table per measure."""

    def __init__(self, tables: Mapping[str, MeasureTable] | None = None):
        self.tables: dict[str, MeasureTable] = dict(tables or {})

    def __getitem__(self, measure_name: str) -> MeasureTable:
        return self.tables[measure_name]

    def __contains__(self, measure_name: str) -> bool:
        return measure_name in self.tables

    def __iter__(self):
        return iter(self.tables)

    def items(self):
        return self.tables.items()

    def total_rows(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def merge_disjoint(self, other: "ResultSet") -> None:
        """Merge another result set, enforcing region disjointness."""
        for name, table in other.tables.items():
            mine = self.tables.get(name)
            if mine is None:
                self.tables[name] = MeasureTable(
                    table.granularity, dict(table.values)
                )
            else:
                mine.merge_disjoint(table)

    def as_rows(self) -> list[tuple[str, tuple, object]]:
        """Flatten to sorted ``(measure, coords, value)`` rows."""
        rows = [
            (name, coords, value)
            for name, table in sorted(self.tables.items())
            for coords, value in table.items()
        ]
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        if self.tables.keys() != other.tables.keys():
            return False
        return all(
            self.tables[name].values == other.tables[name].values
            for name in self.tables
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{name}: {len(table)}" for name, table in sorted(self.tables.items())
        )
        return f"ResultSet({parts})"
