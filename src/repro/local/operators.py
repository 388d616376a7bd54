"""Relationship operators over measure tables.

These implement the value flow along workflow edges: roll-up of child
regions, alignment to a parent region, and sibling sliding windows.  They
are pure functions from measure tables to measure tables, shared by the
centralized evaluator and the per-block reducers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict

import numpy as np

from repro import kernels
from repro.cube.regions import Granularity
from repro.query.functions import AggregateFunction
from repro.query.measures import SiblingWindow
from repro.local.measure_table import MeasureTable


def rollup(
    source: MeasureTable,
    target: Granularity,
    aggregate: AggregateFunction,
) -> MeasureTable:
    """Aggregate child-region values into their parent regions.

    Implements the child/parent relationship: the value of each target
    region is ``aggregate`` over the values of its child regions present
    in *source*.
    """
    if not target.is_generalization_of(source.granularity):
        raise ValueError(
            f"rollup target {target} is not a generalization of "
            f"{source.granularity}"
        )
    groups: dict[tuple, object] = {}
    add = aggregate.add
    create = aggregate.create
    # Levels are resolved once per call, not once per row.
    to_parent = source.granularity.coords_mapper(target)
    for coords, value in source.items():
        parent = to_parent(coords)
        acc = groups.get(parent)
        if acc is None:
            acc = create()
        groups[parent] = add(acc, value)
    finalize = aggregate.finalize
    return MeasureTable(
        target, {coords: finalize(acc) for coords, acc in groups.items()}
    )


def rollup_partials(
    source_granularity: Granularity,
    partials: dict[tuple, object],
    target: Granularity,
    aggregate: AggregateFunction,
) -> dict[tuple, object]:
    """Merge partial accumulator states up to a coarser granularity.

    A building block for pipelines that ship accumulator states instead
    of raw records and need to re-aggregate them at a coarser level (the
    same-granularity merge the executor's early-aggregation path does is
    the degenerate case).
    """
    merged: dict[tuple, object] = {}
    merge = aggregate.merge
    # Sorted iteration keeps float accumulator merges deterministic no
    # matter what order the partial states were collected in.
    for coords, state in sorted(partials.items()):
        parent = source_granularity.map_coords(coords, target)
        existing = merged.get(parent)
        merged[parent] = state if existing is None else merge(existing, state)
    return merged


def sibling_window(
    source: MeasureTable,
    window: SiblingWindow,
    aggregate: AggregateFunction,
) -> MeasureTable:
    """Sliding-window aggregation over one numeric attribute.

    For every region present in *source*, aggregates the source values of
    sibling regions whose coordinate along ``window.attribute`` lies in
    ``[t + window.low, t + window.high]`` (other coordinates equal).
    Anchors are the regions present in *source*; windows shrink at data
    boundaries (they aggregate whatever siblings exist), and an anchor
    whose window is completely empty -- possible when the window
    excludes offset 0, e.g. a strictly-previous ``(-1, -1)`` -- produces
    no output row, consistent with group-by semantics.
    """
    granularity = source.granularity
    axis = granularity.schema.attribute_index(window.attribute)

    # Bucket values by the non-window coordinates, sorted along the axis.
    groups: dict[tuple, list[tuple[int, object]]] = defaultdict(list)
    for coords, value in source.items():
        key = coords[:axis] + coords[axis + 1 :]
        groups[key].append((coords[axis], value))

    kernel = aggregate.name in _KERNEL_WINDOWS
    result: dict[tuple, object] = {}
    for key, entries in groups.items():
        entries.sort()
        positions = [position for position, _ in entries]
        values = [value for _, value in entries]
        if kernel and _kernel_safe(positions, values, aggregate.name):
            windowed = _window_kernel(
                positions, values, window, aggregate.name
            )
        else:
            windowed = _window_generic(positions, values, window, aggregate)
        for position, value in windowed:
            result[key[:axis] + (position,) + key[axis:]] = value
    return MeasureTable(granularity, result)


def _window_generic(positions, values, window, aggregate):
    """Re-aggregate each window slice: O(w) per anchor, any function."""
    out = []
    for position in positions:
        start = bisect_left(positions, position + window.low)
        stop = bisect_right(positions, position + window.high)
        if start >= stop:
            continue
        out.append((position, aggregate.aggregate(values[start:stop])))
    return out


#: Aggregates the kernel window sweep covers; min/max included:
#: :func:`repro.kernels.window_reduce` answers them from a sparse table.
_KERNEL_WINDOWS = frozenset({"sum", "count", "avg", "min", "max"})

#: Coordinate bound keeping ``position + window offset`` inside int64.
_KERNEL_POSITION_BOUND = 2**62

#: Largest magnitude exactly representable in a float64 mantissa.
_EXACT_FLOAT_BOUND = 2**53


def _kernel_safe(positions, values, aggregate_name: str) -> bool:
    """Whether the kernel sweep is *exact* for this group.

    The kernel path must be bit-identical to the scalar fold, which
    :func:`_window_generic` runs for every group refused here.
    Positions must fit int64 with window-offset headroom; ``count``
    ignores the values; ``min``/``max`` only select, so any int64 value
    is exact; ``sum``/``avg`` take only ints whose running totals stay
    within float64's exact range (2**53), where the NumPy cumsum and the
    scalar fold land on the same total and ``avg`` divides it once.
    """
    for position in positions:
        if abs(position) > _KERNEL_POSITION_BOUND:
            return False
    if aggregate_name == "count":
        return True
    total = 0
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        total += abs(value)
    if aggregate_name in ("min", "max"):
        return all(-(2**63) <= v < 2**63 for v in values)
    return total <= _EXACT_FLOAT_BOUND


def _window_kernel(positions, values, window, aggregate_name: str):
    """Sweep one sorted group with the window kernel."""
    pos = np.asarray(positions, dtype=np.int64)
    if aggregate_name == "count":
        mask, out = kernels.window_reduce(
            pos, pos, window.low, window.high, "count"
        )
        return [
            (int(pos[i]), int(out[i])) for i in np.flatnonzero(mask)
        ]
    vals = np.asarray(values, dtype=np.int64)
    if aggregate_name == "avg":
        # Integer sum and count kernels with one float division per
        # anchor, matching the scalar fold bitwise.
        mask, sums = kernels.window_reduce(
            pos, vals, window.low, window.high, "sum"
        )
        _, counts = kernels.window_reduce(
            pos, vals, window.low, window.high, "count"
        )
        return [
            (int(pos[i]), int(sums[i]) / int(counts[i]))
            for i in np.flatnonzero(mask)
        ]
    mask, out = kernels.window_reduce(
        pos, vals, window.low, window.high, aggregate_name
    )
    return [(int(pos[i]), int(out[i])) for i in np.flatnonzero(mask)]


def sibling_window_patch(
    source: MeasureTable,
    window: SiblingWindow,
    aggregate: AggregateFunction,
    dirty: set,
    cached: MeasureTable,
) -> tuple[MeasureTable, set]:
    """Regionally repair a cached sliding-window result after an append.

    *source* is the up-to-date source table, *dirty* the set of source
    coordinates whose values changed (or appeared), and *cached* the
    window result computed over the pre-append source.  Inverting the
    window containment test (``t``'s window reaches a dirty coordinate
    ``c`` exactly when ``t`` lies in ``[c - high, c - low]``) splits the
    anchors into a recompute set and a copy set -- the paper's
    Theorem 1-2 extended-range reasoning applied to maintenance instead
    of partitioning.  Recomputed anchors use the generic per-slice fold,
    which every fast path in this module is exactness-gated to match
    bitwise, so the patched table equals :func:`sibling_window` of the
    full new source.  Returns ``(table, touched)`` where *touched* is
    the set of anchor coordinates whose window reached a dirty region
    (re-folded, or dropped when the window came up empty) -- the only
    coordinates at which the result can differ from *cached*.
    """
    granularity = source.granularity
    axis = granularity.schema.attribute_index(window.attribute)

    dirty_axis: dict[tuple, list[int]] = defaultdict(list)
    for coords in dirty:
        key = coords[:axis] + coords[axis + 1 :]
        dirty_axis[key].append(coords[axis])

    # Start from the cached result: groups with no dirty coordinate are
    # copied wholesale (one C-speed dict copy), and only the dirty
    # groups are collected, sorted, and re-folded.  Cached anchors whose
    # source row vanished are dropped so the result's anchor set always
    # equals a cold evaluation's.
    result: dict[tuple, object] = dict(cached.values)
    for stale in cached.values.keys() - source.values.keys():
        del result[stale]
    recomputed: set = set()
    if not dirty_axis:
        return MeasureTable(granularity, result), recomputed

    groups: dict[tuple, list[tuple[int, object]]] = defaultdict(list)
    for coords, value in source.items():
        key = coords[:axis] + coords[axis + 1 :]
        if key in dirty_axis:
            groups[key].append((coords[axis], value))
    for key, entries in groups.items():
        entries.sort()
        positions = [position for position, _ in entries]
        values = [value for _, value in entries]
        dirties = sorted(dirty_axis[key])
        for position in positions:
            coords = key[:axis] + (position,) + key[axis:]
            first = bisect_left(dirties, position + window.low)
            touched = (
                first < len(dirties)
                and dirties[first] <= position + window.high
            )
            if not touched and coords in cached:
                continue
            recomputed.add(coords)
            start = bisect_left(positions, position + window.low)
            stop = bisect_right(positions, position + window.high)
            if start >= stop:
                # Empty window (offset-0-excluding windows at the data
                # boundary): no output row, same as a cold evaluation.
                result.pop(coords, None)
                continue
            result[coords] = aggregate.aggregate(values[start:stop])
    return MeasureTable(granularity, result), recomputed


def align_candidates(
    target: Granularity,
    edge_tables: list[tuple[MeasureTable, bool]],
    fallback_coords=None,
) -> set[tuple] | None:
    """Candidate target coordinates for an expression-form measure.

    *edge_tables* pairs each edge's table with a flag telling whether the
    edge is an ALIGN (parent/child) edge.  Non-ALIGN edges constrain the
    candidates to the intersection of their coordinate sets; ALIGN edges
    cannot (a parent value fans out to unboundedly many children), so a
    measure with only ALIGN edges falls back to *fallback_coords* (the
    regions occupied by raw data at the target granularity).

    Returns ``None`` when no candidate source is available.
    """
    candidates: set[tuple] | None = None
    for table, is_align in edge_tables:
        if is_align:
            continue
        coords = set(table.coords())
        candidates = coords if candidates is None else candidates & coords
    if candidates is not None:
        return candidates
    if fallback_coords is not None:
        return set(fallback_coords)
    return None
