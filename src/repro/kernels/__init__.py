"""NumPy kernels for the hottest inner loops of the data plane.

The sort/scan grouping sweep, the sibling-window sweep and the
early-aggregation partial-state fold call the functions here.  All of
them take already-sorted inputs (``starts`` mark run starts in the
sorted stream).  Integer sums and every ``min``/``max`` are exact.
Float sums are not folded left-to-right: ``np.add.reduceat`` sums
floats pairwise, so a float sum can differ from the scalar fold in the
last digit; ROADMAP.md item 1 plans correctly rounded float sums.
"""

from __future__ import annotations

import numpy as np

_REDUCEAT = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def kernels_backend() -> str:
    """Name of the kernel implementation, as run envelopes record it."""
    return "numpy"


def segment_reduce(
    values: np.ndarray, starts: np.ndarray, op: str
) -> np.ndarray:
    """Reduce each ``[starts[i], starts[i+1])`` run of sorted *values*.

    *op* is one of ``sum``/``min``/``max``.  Integer results and every
    ``min``/``max`` are exact; float sums are pairwise, so they can
    round differently from a left-to-right fold (ROADMAP.md item 1).
    """
    if not len(starts):
        return np.empty(0, dtype=values.dtype)
    ufunc = _REDUCEAT.get(op)
    if ufunc is None:
        raise ValueError(f"unknown segment reduction {op!r}")
    return ufunc.reduceat(values, starts)


def segment_counts(starts: np.ndarray, total: int) -> np.ndarray:
    """Run lengths for runs starting at *starts* in a stream of *total*."""
    if not len(starts):
        return np.empty(0, dtype=np.int64)
    return np.diff(np.append(starts, total))


def take_blocks(counts: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Entry indices of *blocks*, in that order, block-major.

    The entries are a block-major stream whose block ``i`` holds
    ``counts[i]`` of them: how a bucket's rows are regrouped when its
    blocks are reordered or a subset is selected.
    """
    counts = np.asarray(counts, dtype=np.int64)
    taken = counts[blocks]
    shift = (np.cumsum(counts) - counts)[blocks] - (np.cumsum(taken) - taken)
    return np.repeat(shift, taken) + np.arange(
        int(taken.sum()), dtype=np.int64
    )


def row_boundaries(sorted_rows: np.ndarray) -> np.ndarray:
    """Boundary mask over lexicographically sorted matrix rows.

    ``out[i]`` is True when row *i* differs from row ``i-1`` (row 0 is
    always a boundary) -- the grouping primitive of the sort/scan sweep.
    """
    if sorted_rows.ndim == 1:
        sorted_rows = sorted_rows[:, None]
    out = np.ones(len(sorted_rows), dtype=bool)
    if len(sorted_rows) > 1:
        np.any(
            sorted_rows[1:] != sorted_rows[:-1], axis=1, out=out[1:]
        )
    return out


def _sparse_table(values: np.ndarray, ufunc) -> list[np.ndarray]:
    """Doubling min/max table: level j reduces runs of length 2**j."""
    levels = [values]
    length = 1
    while length * 2 <= len(values):
        previous = levels[-1]
        levels.append(ufunc(previous[:-length], previous[length:]))
        length *= 2
    return levels


def window_reduce(
    positions: np.ndarray,
    values: np.ndarray,
    low: int,
    high: int,
    op: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding sibling-window reduction over sorted integer *positions*.

    For every anchor position ``t`` aggregates the values whose position
    lies in ``[t+low, t+high]``.  Returns ``(mask, out)`` where *mask*
    flags anchors with a non-empty window and *out* holds their
    aggregated values (entries of *out* outside the mask are
    meaningless).  *op* is ``sum``/``count``/``min``/``max``; ``avg`` is
    built by callers from ``sum`` and ``count`` so the division matches
    the scalar path exactly.
    """
    if not len(positions):
        return np.empty(0, dtype=bool), np.empty(0, dtype=values.dtype)
    # Per-anchor [start, stop) index ranges into the sorted positions.
    starts = np.searchsorted(positions, positions + low, side="left")
    stops = np.searchsorted(positions, positions + high, side="right")
    return starts < stops, range_reduce(values, starts, stops, op)


def range_reduce(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray, op: str
) -> np.ndarray:
    """Reduce ``values[starts[i]:stops[i]]`` for every range *i*.

    *op* is ``sum``/``count``/``min``/``max``: ``sum`` differences one
    prefix sum (exact for integers that cannot overflow), ``min``/``max``
    answer each range from a doubling table.  Entries for empty ranges
    are meaningless.
    """
    if op == "count":
        return (stops - starts).astype(np.int64)
    if op == "sum":
        prefix = np.zeros(len(values) + 1, dtype=values.dtype)
        np.cumsum(values, out=prefix[1:])
        return prefix[stops] - prefix[starts]
    if op in ("min", "max"):
        ufunc = np.minimum if op == "min" else np.maximum
        mask = starts < stops
        table = _sparse_table(values, ufunc)
        lengths = np.maximum(stops - starts, 1)
        # floor(log2) is exact here: window lengths are far below 2**52.
        levels = np.floor(np.log2(lengths)).astype(np.int64)
        out = np.empty(len(starts), dtype=values.dtype)
        for level in np.unique(levels[mask]):
            span = 1 << int(level)
            rows = np.flatnonzero(mask & (levels == level))
            left = table[int(level)][starts[rows]]
            right = table[int(level)][stops[rows] - span]
            out[rows] = ufunc(left, right)
        return out
    raise ValueError(f"unknown window reduction {op!r}")


def pack_rows(
    matrix: np.ndarray, split: int = 0
) -> tuple[np.ndarray, int] | None:
    """Bit-pack matrix rows into single int64 keys, when they fit.

    Packs each row's columns (leading columns into the high bits) into
    one non-negative int64 so a single stable ``argsort`` replaces a
    k-column lexsort and run detection becomes a 1-D ``diff``.  Returns
    ``(packed, low_bits)`` where ``packed >> low_bits`` recovers a key
    of the first *split* columns alone (``low_bits`` is 0 when *split*
    is 0 or covers every column), or ``None`` when the value ranges
    cannot fit in 63 bits -- callers then fall back to ``np.lexsort``.
    """
    if matrix.ndim != 2:
        raise ValueError("pack_rows expects a 2-D matrix")
    rows, cols = matrix.shape
    if not cols:
        return None
    if not rows:
        return np.zeros(0, dtype=np.int64), 0
    matrix = matrix.astype(np.int64, copy=False)
    lows = matrix.min(axis=0)
    bits = [
        span.bit_length() for span in (matrix.max(axis=0) - lows).tolist()
    ]
    if sum(bits) > 63:
        return None
    # Each column's field sits above the fields of the columns after it;
    # the fields are disjoint, so one weighted row sum packs them.
    weights = []
    shift = 0
    for width in reversed(bits):
        weights.append(1 << shift)
        shift += width
    packed = (matrix - lows) @ np.array(weights[::-1], dtype=np.int64)
    return packed, sum(bits[split:]) if split else 0
