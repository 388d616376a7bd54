"""Hierarchical value domains for cube-space attributes.

Every attribute of a composite-subset-measure schema draws its values from
a chain of *domains* (the paper's term; we call them :class:`Level` here to
avoid clashing with the mathematical notion of a domain).  The chain runs
from the most specific level (depth 0, the *base* level that raw record
values live in) up to the special ``ALL`` level, which has a single value.

Two kinds of hierarchies are provided:

* :class:`UniformHierarchy` -- for numeric and temporal attributes whose
  levels are fixed-fanout groupings of an integer base domain (seconds ->
  minutes -> hours -> days, or value -> level buckets).  These support the
  exact range-conversion arithmetic needed by ``opConvert``/``opCombine``.
* :class:`MappingHierarchy` -- for nominal attributes (keyword -> keyword
  group) whose level mappings are explicit dictionaries.  Nominal levels
  cannot carry range annotations because closeness is undefined for them.

Values at every level are plain Python ints (nominal hierarchies map
arbitrary hashable base values onto opaque group identifiers).  The single
value of the ``ALL`` level is the constant :data:`ALL_VALUE`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

#: Name of the most general level present in every hierarchy.
ALL = "ALL"

#: The single value of the ``ALL`` level.
ALL_VALUE = 0


class DomainError(ValueError):
    """Raised for invalid level names or impossible level conversions."""


@dataclass(frozen=True)
class Level:
    """One level of a hierarchy.

    Attributes:
        name: Level name, unique within its hierarchy (e.g. ``"minute"``).
        depth: Position in the chain; 0 is the base (most specific) level
            and larger depths are more general.  The ``ALL`` level always
            has the largest depth.
        unit: For uniform hierarchies, the number of *base* units that one
            value of this level spans (e.g. 60 for ``minute`` over a
            ``second`` base).  ``None`` for nominal levels and for ``ALL``.
        cardinality: Number of distinct values of this level over the
            attribute's base domain (1 for ``ALL``).
    """

    name: str
    depth: int
    unit: int | None
    cardinality: int

    @property
    def is_all(self) -> bool:
        return self.name == ALL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Level({self.name!r}, depth={self.depth})"


class Hierarchy:
    """Base class for attribute hierarchies.

    A hierarchy is an ordered chain of :class:`Level` objects, base level
    first and ``ALL`` last.  Subclasses implement :meth:`map_value`.
    """

    def __init__(self, name: str, levels: Sequence[Level]):
        if not levels or not levels[-1].is_all:
            raise DomainError("a hierarchy must end with the ALL level")
        self.name = name
        self.levels = tuple(levels)
        self._by_name = {level.name: level for level in levels}
        if len(self._by_name) != len(levels):
            raise DomainError(f"duplicate level names in hierarchy {name!r}")

    def __getstate__(self) -> dict:
        # The :meth:`map_array` cache holds closures; a copy rebuilds it.
        state = dict(self.__dict__)
        state.pop("_array_maps", None)
        return state

    # -- level lookup -----------------------------------------------------

    @property
    def base(self) -> Level:
        """The most specific level (raw record values live here)."""
        return self.levels[0]

    def level(self, name: str) -> Level:
        """Return the level called *name*, raising :class:`DomainError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DomainError(
                f"hierarchy {self.name!r} has no level {name!r}; "
                f"levels are {[lvl.name for lvl in self.levels]}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def is_more_general(self, a: str, b: str) -> bool:
        """True when level *a* is strictly more general than level *b*."""
        return self.level(a).depth > self.level(b).depth

    def generalizations(self, name: str) -> tuple[Level, ...]:
        """All levels at least as general as *name*, specific first."""
        depth = self.level(name).depth
        return tuple(level for level in self.levels if level.depth >= depth)

    def common_generalization(self, a: str, b: str) -> Level:
        """The most specific level that both *a* and *b* roll up into.

        Levels of one attribute form a chain, so this is simply the deeper
        of the two.
        """
        level_a, level_b = self.level(a), self.level(b)
        return level_a if level_a.depth >= level_b.depth else level_b

    # -- value mapping ----------------------------------------------------

    def map_value(self, value: int, from_level: str, to_level: str) -> int:
        """Map *value* from one level to a more general one."""
        raise NotImplementedError

    def refine_values(
        self, value: int, from_level: str, to_level: str
    ) -> Sequence[int] | None:
        """All *to_level* values that roll up into *value* at *from_level*.

        The inverse of :meth:`map_value`: child enumeration for
        bounded-region maintenance (expanding a dirty coarse coordinate
        into the finer coordinates it covers).  Hierarchies that cannot
        enumerate children return ``None``; callers then fall back to
        scanning.
        """
        return None

    def base_mapper(self, to_level: str):
        """A fast ``base value -> to_level value`` callable.

        Level resolution happens once here instead of per record;
        subclasses return a plain arithmetic or table-lookup closure for
        the hot coordinate-mapping loops.
        """
        level = self.level(to_level)
        if level.is_all:
            return lambda _value: ALL_VALUE
        if level.depth == 0:
            return lambda value: value
        base = self.base.name
        return lambda value: self.map_value(value, base, to_level)

    def base_mapper_array(self, to_level: str):
        """Vectorized :meth:`base_mapper`: int64 column -> int64 column.

        The generic implementation precomputes a lookup table over the
        base domain; subclasses with arithmetic mappings override it.
        NumPy is imported lazily so the core cube modules stay usable
        without it.
        """
        import numpy as np

        level = self.level(to_level)
        if level.is_all:
            return lambda column: np.full(len(column), ALL_VALUE,
                                          dtype=np.int64)
        if level.depth == 0:
            return lambda column: column
        mapper = self.base_mapper(to_level)
        cardinality = self.base.cardinality
        table = np.fromiter(
            (mapper(value) for value in range(cardinality)),
            dtype=np.int64,
            count=cardinality,
        )
        return lambda column: table[column]

    def map_array(self, from_level: str, to_level: str):
        """Vectorized :meth:`map_value`: int64 column -> int64 column.

        Built once per level pair and kept on the hierarchy: identity
        for equal levels, the ``ALL`` marker for ``ALL``, integer
        division for uniform levels, otherwise a lookup table over the
        *from_level* domain (the base level reuses
        :meth:`base_mapper_array`).
        """
        cache = self.__dict__.setdefault("_array_maps", {})
        mapper = cache.get((from_level, to_level))
        if mapper is None:
            mapper = cache[from_level, to_level] = self._build_map_array(
                from_level, to_level
            )
        return mapper

    def _build_map_array(self, from_level: str, to_level: str):
        import numpy as np

        src, dst = self.level(from_level), self.level(to_level)
        if src.depth > dst.depth:
            raise DomainError(
                f"cannot map {self.name}.{from_level} down to finer "
                f"level {to_level}"
            )
        if src.depth == 0 or dst.is_all:
            return self.base_mapper_array(to_level)
        if src.depth == dst.depth:
            return lambda column: column
        if src.unit and dst.unit:
            ratio = dst.unit // src.unit
            return lambda column: column // ratio
        table = np.fromiter(
            (
                self.map_value(value, from_level, to_level)
                for value in range(src.cardinality)
            ),
            dtype=np.int64,
            count=src.cardinality,
        )
        return lambda column: table[column]

    @property
    def supports_ranges(self) -> bool:
        """Whether range annotations are meaningful on this attribute."""
        return False

    def convert_range(
        self, low: int, high: int, from_level: str, to_level: str
    ) -> tuple[int, int]:
        """Convert a sibling-offset range between levels (numeric only)."""
        raise DomainError(
            f"attribute hierarchy {self.name!r} is nominal and does not "
            "support range annotations"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = "/".join(level.name for level in self.levels)
        return f"{type(self).__name__}({self.name!r}: {names})"


class UniformHierarchy(Hierarchy):
    """Fixed-fanout hierarchy over an integer base domain ``[0, card)``.

    Args:
        name: Hierarchy name (usually the attribute name).
        level_units: Mapping from level name to the number of base units
            one value of the level spans, in increasing order and starting
            with the base level at unit 1.  The ``ALL`` level is appended
            automatically.
        base_cardinality: Number of distinct base values.

    Example::

        time = UniformHierarchy(
            "time",
            {"second": 1, "minute": 60, "hour": 3600, "day": 86400},
            base_cardinality=20 * 86400,
        )
        time.map_value(3725, "second", "hour")   # -> 1
        time.convert_range(-599, 0, "second", "minute")  # -> (-10, 0)
    """

    def __init__(
        self, name: str, level_units: Mapping[str, int], base_cardinality: int
    ):
        units = list(level_units.values())
        if not units or units[0] != 1:
            raise DomainError("the first (base) level must have unit 1")
        if any(b % a != 0 or b <= a for a, b in zip(units, units[1:])):
            raise DomainError(
                "level units must be strictly increasing and each a "
                "multiple of the previous one"
            )
        if base_cardinality <= 0:
            raise DomainError("base_cardinality must be positive")
        levels = [
            Level(
                level_name,
                depth,
                unit,
                cardinality=max(1, math.ceil(base_cardinality / unit)),
            )
            for depth, (level_name, unit) in enumerate(level_units.items())
        ]
        levels.append(Level(ALL, len(levels), None, 1))
        super().__init__(name, levels)
        self.base_cardinality = base_cardinality

    @property
    def supports_ranges(self) -> bool:
        return True

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
        # Both units are defined; integer floor division maps a fine
        # coordinate to the coarse bucket containing it.
        return (value * src.unit) // dst.unit

    def refine_values(
        self, value: int, from_level: str, to_level: str
    ) -> Sequence[int] | None:
        src, dst = self.level(from_level), self.level(to_level)
        if src.depth < dst.depth:
            raise DomainError(
                f"cannot refine {self.name}.{from_level} into coarser "
                f"level {to_level}"
            )
        if src.depth == dst.depth:
            return (value,)
        if src.is_all:
            return range(dst.cardinality)
        ratio = src.unit // dst.unit
        start = value * ratio
        return range(start, min(start + ratio, dst.cardinality))

    def base_mapper(self, to_level: str):
        level = self.level(to_level)
        if level.is_all:
            return lambda _value: ALL_VALUE
        if level.depth == 0:
            return lambda value: value
        unit = level.unit
        return lambda value: value // unit

    def base_mapper_array(self, to_level: str):
        import numpy as np

        level = self.level(to_level)
        if level.is_all:
            return lambda column: np.full(len(column), ALL_VALUE,
                                          dtype=np.int64)
        if level.depth == 0:
            return lambda column: column
        unit = level.unit
        # NumPy's // floors like Python's, so negative coordinates (not
        # that records carry any) would bucket identically.
        return lambda column: column // unit

    def convert_range(
        self, low: int, high: int, from_level: str, to_level: str
    ) -> tuple[int, int]:
        """Conservatively convert an offset interval between levels.

        An offset of ``k`` fine units, seen from a coordinate anywhere
        inside a coarse bucket, can land at most ``ceil(k / f)`` coarse
        buckets away (``f`` = fanout).  Mapping towards a finer level
        multiplies the reach accordingly.  The result always contains the
        exact coverage, mirroring the paper's ``T:day(-1,+6)`` ->
        ``T:month(-1,+3)`` example.
        """
        if low > high:
            raise DomainError(f"invalid range ({low}, {high}): low > high")
        src, dst = self.level(from_level), self.level(to_level)
        if src.is_all or dst.is_all:
            raise DomainError("cannot convert ranges through the ALL level")
        if src.depth == dst.depth:
            return (low, high)
        if src.depth < dst.depth:
            fanout = dst.unit // src.unit
            return (math.floor(low / fanout), math.ceil(high / fanout))
        fanout = src.unit // dst.unit
        # The fine anchor may sit anywhere inside its coarse bucket, so a
        # reach of k coarse units covers fine offsets up to
        # k*f + (f-1) away in either direction.
        return (low * fanout - (fanout - 1), high * fanout + (fanout - 1))


class MappingHierarchy(Hierarchy):
    """Nominal hierarchy defined by explicit parent mappings.

    Args:
        name: Hierarchy name.
        base_values: The distinct base-level values (any hashables); they
            are enumerated into contiguous int codes in iteration order.
        level_maps: Ordered mapping from level name to a dict sending each
            value of the *previous* level to its value at this level.
            Levels must be listed specific-to-general; ``ALL`` is appended
            automatically.
    """

    def __init__(
        self,
        name: str,
        base_values: Sequence[Hashable],
        level_maps: Mapping[str, Mapping[Hashable, Hashable]] | None = None,
        base_level_name: str = "value",
    ):
        level_maps = dict(level_maps or {})
        self.encode = {value: code for code, value in enumerate(base_values)}
        if len(self.encode) != len(base_values):
            raise DomainError("base_values must be distinct")
        self.decode: dict[int, list[Hashable]] = {
            0: list(base_values)
        }

        levels = [Level(base_level_name, 0, None, len(base_values))]
        # _tables[depth][code_at_base] -> code at that depth
        self._tables: list[list[int]] = [list(range(len(base_values)))]
        # _representatives[depth][code_at_depth] -> one base code mapping
        # to it; enables mapping between two intermediate levels.
        self._representatives: list[list[int]] = [list(range(len(base_values)))]
        previous_values: list[Hashable] = list(base_values)
        for depth, (level_name, mapping) in enumerate(level_maps.items(), 1):
            missing = [v for v in previous_values if v not in mapping]
            if missing:
                raise DomainError(
                    f"level {level_name!r} mapping is missing values "
                    f"{missing[:5]!r}"
                )
            parents: dict[Hashable, int] = {}
            for value in previous_values:
                parents.setdefault(mapping[value], len(parents))
            table = [
                parents[mapping[previous_values[self._tables[depth - 1][code]]]]
                for code in range(len(base_values))
            ]
            self._tables.append(table)
            representatives = [-1] * len(parents)
            for base_code, level_code in enumerate(table):
                if representatives[level_code] < 0:
                    representatives[level_code] = base_code
            self._representatives.append(representatives)
            levels.append(Level(level_name, depth, None, len(parents)))
            previous_values = list(parents)
            self.decode[depth] = previous_values
        levels.append(Level(ALL, len(levels), None, 1))
        super().__init__(name, levels)

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
        if src.depth != 0:
            # Intermediate-to-coarser mapping: every base value sharing
            # this code maps to the same coarser code (level maps are
            # functions of the level's values), so any representative
            # base stands in for the whole group.
            value = self._representatives[src.depth][value]
        return self._tables[dst.depth][value]

    def base_mapper(self, to_level: str):
        level = self.level(to_level)
        if level.is_all:
            return lambda _value: ALL_VALUE
        if level.depth == 0:
            return lambda value: value
        return self._tables[level.depth].__getitem__

    def base_mapper_array(self, to_level: str):
        import numpy as np

        level = self.level(to_level)
        if level.is_all:
            return lambda column: np.full(len(column), ALL_VALUE,
                                          dtype=np.int64)
        if level.depth == 0:
            return lambda column: column
        table = np.asarray(self._tables[level.depth], dtype=np.int64)
        return lambda column: table[column]


def temporal_hierarchy(
    name: str = "time", days: int = 20, base: str = "second"
) -> UniformHierarchy:
    """The paper's temporal hierarchy: second/minute/hour/day over *days*."""
    units = {"second": 1, "minute": 60, "hour": 3600, "day": 86400}
    if base not in units:
        raise DomainError(f"unknown temporal base level {base!r}")
    scale = units[base]
    level_units = {
        level: unit // scale for level, unit in units.items() if unit >= scale
    }
    return UniformHierarchy(name, level_units, base_cardinality=days * (86400 // scale))


def banded_hierarchy(
    name: str, base_cardinality: int = 256, fanout: int = 4, depth: int = 3
) -> UniformHierarchy:
    """The paper's integer-attribute hierarchy: fixed-fanout value bands.

    With the defaults this produces levels ``value`` (256 values),
    ``band1`` (64), ``band2`` (16) and ``band3`` (4) plus ``ALL`` --
    matching Section VI's four-level domains over ``[0, 255]``.
    """
    level_units = {"value": 1}
    for i in range(1, depth + 1):
        level_units[f"band{i}"] = fanout**i
    return UniformHierarchy(name, level_units, base_cardinality)
