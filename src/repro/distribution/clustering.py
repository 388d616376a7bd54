"""Block assignment under a distribution key and clustering factor.

The *clustering factor* ``cf`` merges ``cf`` adjacent regions along each
annotated attribute into one distribution block (Section III-C).  A block
with index ``b`` *owns* coordinates ``b*cf .. b*cf + cf - 1`` and is the
only block allowed to output results anchored there; to make that
possible it additionally receives the records of coordinates reaching
``low`` before its first owned coordinate and ``high`` past its last one.
Larger ``cf`` amortizes the duplicated fringe over more owned regions at
the price of fewer blocks (less parallelism) -- the trade-off the
optimizer resolves.

The scheme produces, per record, the set of block keys the record must be
shipped to (:meth:`BlockScheme.make_mapper`) and, per block, the
ownership predicate that filters duplicate results in the reducers
(:meth:`BlockScheme.make_result_filter`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from repro.cube.domains import ALL, ALL_VALUE
from repro.cube.regions import Granularity
from repro.distribution.keys import DistributionError, DistributionKey


@dataclass(frozen=True)
class BlockScheme:
    """A distribution key plus clustering factors for annotated attributes."""

    key: DistributionKey
    clustering_factors: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        annotated = set(self.key.annotated_attributes())
        factors = dict(self.clustering_factors)
        unknown = set(factors) - annotated
        if unknown:
            raise DistributionError(
                f"clustering factors given for non-annotated attributes "
                f"{sorted(unknown)}"
            )
        for name in annotated:
            factors.setdefault(name, 1)
            if factors[name] < 1:
                raise DistributionError(
                    f"clustering factor for {name!r} must be >= 1"
                )
        object.__setattr__(self, "clustering_factors", factors)

    # -- geometry -----------------------------------------------------------------

    @property
    def schema(self):
        return self.key.schema

    def factor(self, attr_name: str) -> int:
        return self.clustering_factors.get(attr_name, 1)

    def _axis(self, attr_name: str):
        """(component, hierarchy, level cardinality, cf) for one attribute."""
        attr = self.schema.attribute(attr_name)
        component = self.key.component(attr_name)
        cardinality = attr.hierarchy.level(component.level).cardinality
        return component, attr.hierarchy, cardinality, self.factor(attr_name)

    def max_block_index(self, attr_name: str) -> int:
        _component, _hierarchy, cardinality, cf = self._axis(attr_name)
        return (cardinality - 1) // cf

    def owned_range(self, attr_name: str, block_index: int) -> tuple[int, int]:
        """Coordinates (at the key level) owned by *block_index*."""
        _component, _hierarchy, cardinality, cf = self._axis(attr_name)
        low = block_index * cf
        high = min(cardinality - 1, low + cf - 1)
        return low, high

    def num_blocks(self) -> int:
        """Total distribution blocks (the model's n_G / cf per axis)."""
        count = 1
        for attr, component in zip(self.schema.attributes, self.key.components):
            if component.level == ALL:
                continue
            cardinality = attr.hierarchy.level(component.level).cardinality
            if component.annotated:
                count *= self.max_block_index(attr.name) + 1
            else:
                count *= cardinality
        return count

    def expected_replication(self) -> float:
        """Expected copies of each record ((d + cf) / cf per axis)."""
        copies = 1.0
        for attr, component in zip(self.schema.attributes, self.key.components):
            if component.annotated:
                cf = self.factor(attr.name)
                copies *= (component.span + cf) / cf
        return copies

    # -- record -> blocks ------------------------------------------------------------

    def make_mapper(self):
        """Build ``record -> list[block key tuple]``.

        A record whose coordinate along an annotated axis is ``c`` is
        needed by every block owning some ``t`` with
        ``t + low <= c <= t + high``, i.e. blocks
        ``floor((c - high)/cf) .. floor((c - low)/cf)`` (clamped).
        Non-annotated axes contribute the single mapped coordinate.
        """
        steps = []
        for index, (attr, component) in enumerate(
            zip(self.schema.attributes, self.key.components)
        ):
            if component.level == ALL:
                steps.append((index, None, None))
                continue
            to_level = attr.hierarchy.base_mapper(component.level)
            if not component.annotated:
                steps.append((index, to_level, None))
            else:
                cf = self.factor(attr.name)
                max_block = self.max_block_index(attr.name)
                steps.append(
                    (
                        index,
                        to_level,
                        (component.low, component.high, cf, max_block),
                    )
                )

        def blocks_of(record) -> list[tuple[int, ...]]:
            axes = []
            for index, to_level, annotation in steps:
                if to_level is None:
                    axes.append((ALL_VALUE,))
                    continue
                coordinate = to_level(record[index])
                if annotation is None:
                    axes.append((coordinate,))
                else:
                    low, high, cf, max_block = annotation
                    first = max(0, (coordinate - high) // cf)
                    # Negative numerators floor-divide downward in Python,
                    # which is exactly the clamp-from-below we want.
                    last = min(max_block, (coordinate - low) // cf)
                    axes.append(tuple(range(first, last + 1)))
            return [key for key in product(*axes)]

        return blocks_of

    def make_batch_router(self):
        """Build ``RecordBatch -> list[(block key, row index array)]``
        (see ``route`` for the ``prefix``/``flat`` variants).

        The vectorized counterpart of :meth:`make_mapper`: coordinates
        are mapped for whole columns at once, annotated axes replicate
        rows into their covering block range with ``np.repeat``
        arithmetic, and the replicas are grouped by block key with one
        stable lexsort.  Within each block the returned row indices are
        ascending, matching the record order the scalar mapper feeds
        into each block's group.
        """
        import numpy as np

        from repro.cube.batches import row_tuples

        steps = []
        for index, (attr, component) in enumerate(
            zip(self.schema.attributes, self.key.components)
        ):
            if component.level == ALL:
                steps.append((index, None, None))
                continue
            to_array = attr.hierarchy.base_mapper_array(component.level)
            if not component.annotated:
                steps.append((index, to_array, None))
            else:
                cf = self.factor(attr.name)
                max_block = self.max_block_index(attr.name)
                steps.append(
                    (
                        index,
                        to_array,
                        (component.low, component.high, cf, max_block),
                    )
                )

        varying_positions = [
            position
            for position, (_index, to_array, _annotation) in enumerate(steps)
            if to_array is not None
        ]

        def route(batch, prefix=(), flat=False, raw=False):
            """Group *batch*'s rows (with replication) by block key.

            *prefix* values become leading components of every returned
            key, folded into the key matrix before the bulk conversion
            -- far cheaper than per-block tuple concatenation after the
            fact.  With ``flat=False`` returns
            ``[(block key, ascending row index array)]``; with
            ``flat=True`` returns ``(keys, rows, counts, key matrix)`` --
            the block keys, one flat row-index array (block-major,
            ascending within each block), per-block replica counts and
            the keys again as an int64 ``(blocks, width)`` array --
            skipping the per-block slice objects entirely for consumers
            that immediately re-flatten.  With ``raw=True`` returns the
            *unsorted* ``(key matrix, source rows, varying columns)``
            replica table so early aggregation can fold the block
            grouping into its own per-measure sort instead of sorting
            twice.
            """
            base = len(prefix)
            varying = [base + position for position in varying_positions]
            total = len(batch)
            if not total:
                if raw:
                    return (
                        np.empty((0, base + len(steps)), dtype=np.int64),
                        np.empty(0, dtype=np.int64),
                        varying,
                    )
                if flat:
                    empty = np.empty(0, dtype=np.int64)
                    return [], empty, empty, np.empty(
                        (0, base + len(steps)), dtype=np.int64
                    )
                return []
            coords_by_step = [
                to_array(batch.column(index)) if to_array is not None else None
                for index, to_array, _annotation in steps
            ]

            # Replicate rows across annotated axes.  ``sel`` holds the
            # source row of every replica; previously expanded block
            # columns are re-indexed alongside it.
            sel = np.arange(total, dtype=np.int64)
            expanded: list[tuple[int, np.ndarray]] = []
            for position, (_index, _to_array, annotation) in enumerate(steps):
                if annotation is None:
                    continue
                low, high, cf, max_block = annotation
                coords = coords_by_step[position]
                first = np.maximum(0, (coords - high) // cf)
                last = np.minimum(max_block, (coords - low) // cf)
                first_sel = first[sel]
                counts = (last - first + 1)[sel]
                reps = np.repeat(
                    np.arange(len(sel), dtype=np.int64), counts
                )
                offsets = np.arange(
                    int(counts.sum()), dtype=np.int64
                ) - np.repeat(np.cumsum(counts) - counts, counts)
                block_column = first_sel[reps] + offsets
                sel = sel[reps]
                expanded = [
                    (pos, column[reps]) for pos, column in expanded
                ]
                expanded.append((position, block_column))

            expanded_columns = dict(expanded)
            replicated = bool(expanded)
            keys = np.empty((len(sel), base + len(steps)), dtype=np.int64)
            for offset, value in enumerate(prefix):
                keys[:, offset] = value
            for position, (_index, to_array, annotation) in enumerate(steps):
                if to_array is None:
                    keys[:, base + position] = ALL_VALUE
                elif annotation is None:
                    column = coords_by_step[position]
                    keys[:, base + position] = (
                        column[sel] if replicated else column
                    )
                else:
                    keys[:, base + position] = expanded_columns[position]

            if raw:
                return keys, sel, varying

            # Prefix and ALL columns are constant -- sort and group on
            # the varying ones only.
            if varying:
                order = np.lexsort(keys.T[varying][::-1])
                sorted_keys = keys[order]
                sorted_rows = sel[order] if replicated else order
                data = sorted_keys[:, varying]
                boundary = np.ones(len(data), dtype=bool)
                boundary[1:] = (data[1:] != data[:-1]).any(axis=1)
            else:
                # Every component is ALL: one block owns everything.
                sorted_keys = keys
                sorted_rows = sel
                boundary = np.zeros(len(keys), dtype=bool)
                boundary[0] = True
            starts = np.flatnonzero(boundary)
            # Plain python ints (np.int64 repr differs, which would
            # change stable_hash partitioning), converted in bulk --
            # see :func:`repro.cube.batches.row_tuples`.
            key_matrix = sorted_keys[starts]
            block_keys = row_tuples(key_matrix)
            if flat:
                counts = np.diff(np.append(starts, len(sorted_keys)))
                return block_keys, sorted_rows, counts, key_matrix
            stops = np.append(starts[1:], len(sorted_keys))
            return [
                (key, sorted_rows[start:stop])
                for key, start, stop in zip(
                    block_keys, starts.tolist(), stops.tolist()
                )
            ]

        return route

    def home_block(self, record) -> tuple[int, ...]:
        """The unique block that owns a record's own region."""
        key = []
        for index, (attr, component) in enumerate(
            zip(self.schema.attributes, self.key.components)
        ):
            if component.level == ALL:
                key.append(ALL_VALUE)
                continue
            hierarchy = attr.hierarchy
            coordinate = hierarchy.map_value(
                record[index], hierarchy.base.name, component.level
            )
            if component.annotated:
                key.append(coordinate // self.factor(attr.name))
            else:
                key.append(coordinate)
        return tuple(key)

    def linear_index(self, block_key: tuple[int, ...]) -> int:
        """Row-major position of a block key in the block grid.

        Used by round-robin partitioning: consecutive blocks go to
        consecutive reducers, which balances uniform block sizes better
        than the random assignment the cost model conservatively assumes.
        """
        index = 0
        for attr, component, coordinate in zip(
            self.schema.attributes, self.key.components, block_key
        ):
            if component.level == ALL:
                extent = 1
            elif component.annotated:
                extent = self.max_block_index(attr.name) + 1
            else:
                extent = attr.hierarchy.level(component.level).cardinality
            index = index * extent + coordinate
        return index

    # -- block -> ownership filter ------------------------------------------------------

    def make_result_filter(self, granularity: Granularity):
        """Build ``block_key -> predicate(coords)`` for one measure.

        A reducer may compute a measure row from fringe data that another
        block owns; the predicate keeps exactly the rows whose region (at
        the measure's *granularity*) maps into the block's owned
        coordinate range on every annotated axis.  Non-annotated axes
        need no check: all of a block's records share those coordinates.
        """
        checks = []
        for index, (attr, component) in enumerate(
            zip(self.schema.attributes, self.key.components)
        ):
            if not component.annotated:
                continue
            hierarchy = attr.hierarchy
            measure_level = granularity.levels[index]
            if measure_level == ALL:
                raise DistributionError(
                    f"measure granularity {granularity} is coarser than the "
                    f"key level on annotated attribute {attr.name!r}; the "
                    "key cannot be feasible"
                )
            checks.append(
                (index, attr.name, hierarchy, measure_level, component.level)
            )

        def filter_for(block_key: tuple[int, ...]):
            bounds = []
            for index, attr_name, hierarchy, measure_level, key_level in checks:
                low, high = self.owned_range(attr_name, block_key[index])
                bounds.append((index, hierarchy, measure_level, key_level,
                               low, high))

            def keep(coords: tuple[int, ...]) -> bool:
                for index, hierarchy, measure_level, key_level, low, high in bounds:
                    mapped = hierarchy.map_value(
                        coords[index], measure_level, key_level
                    )
                    if not low <= mapped <= high:
                        return False
                return True

            return keep

        return filter_for
