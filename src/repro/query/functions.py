"""Aggregate functions and their algebraic classification.

Gray et al.'s taxonomy matters operationally here (Section III-D of the
paper): *distributive* and *algebraic* functions admit partial
aggregation, which enables the early-aggregation optimization in the
mappers; *holistic* functions (median, exact quantiles, distinct counts)
do not.

Every function follows a fold/merge/finalize protocol:

* ``create()`` returns a fresh accumulator,
* ``add(acc, value)`` folds one input value in and returns the
  accumulator (accumulators may be mutated and returned),
* ``merge(a, b)`` combines two accumulators (used by combiners and by
  rollups of partial states),
* ``finalize(acc)`` produces the aggregate value.

``aggregate(values)`` is a convenience wrapper over the protocol.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


class FunctionKind(enum.Enum):
    """Gray et al. classification of an aggregate function."""

    DISTRIBUTIVE = "distributive"
    ALGEBRAIC = "algebraic"
    HOLISTIC = "holistic"


class UnknownFunctionError(KeyError):
    """Raised when looking up an aggregate function that is not registered."""


@dataclass(frozen=True)
class AggregateFunction:
    """A named aggregate with the fold/merge/finalize protocol."""

    name: str
    kind: FunctionKind
    create: Callable[[], object]
    add: Callable[[object, object], object]
    merge: Callable[[object, object], object]
    finalize: Callable[[object], object]
    #: The fraction of an exact quantile (:func:`quantile_function`);
    #: ``None`` for every other function.
    quantile: Optional[float] = None

    @property
    def supports_partial_aggregation(self) -> bool:
        """Whether mapper-side early aggregation preserves the result."""
        return self.kind is not FunctionKind.HOLISTIC

    def aggregate(self, values: Iterable) -> object:
        """Fold *values* and finalize; raises on an empty input."""
        acc = self.create()
        count = 0
        for value in values:
            acc = self.add(acc, value)
            count += 1
        if count == 0:
            raise ValueError(f"{self.name} aggregate of an empty input")
        return self.finalize(acc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AggregateFunction({self.name!r}, {self.kind.value})"


_REGISTRY: dict[str, AggregateFunction] = {}


def register(function: AggregateFunction) -> AggregateFunction:
    """Add *function* to the global registry (overwrites same name)."""
    _REGISTRY[function.name] = function
    return function


def get_function(name: str) -> AggregateFunction:
    """Look a function up by name, raising :class:`UnknownFunctionError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFunctionError(
            f"unknown aggregate function {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_functions() -> tuple[str, ...]:
    """Sorted names of every registered aggregate function."""
    return tuple(sorted(_REGISTRY))


def resolve(function) -> AggregateFunction:
    """Accept either a function name or an :class:`AggregateFunction`."""
    if isinstance(function, AggregateFunction):
        return function
    return get_function(function)


# ---------------------------------------------------------------------------
# Distributive functions
# ---------------------------------------------------------------------------

def _sum_add(acc, value):
    return acc + value


register(
    AggregateFunction(
        "sum",
        FunctionKind.DISTRIBUTIVE,
        create=lambda: 0,
        add=_sum_add,
        merge=_sum_add,
        finalize=lambda acc: acc,
    )
)

register(
    AggregateFunction(
        "count",
        FunctionKind.DISTRIBUTIVE,
        create=lambda: 0,
        add=lambda acc, _value: acc + 1,
        merge=_sum_add,
        finalize=lambda acc: acc,
    )
)

register(
    AggregateFunction(
        "min",
        FunctionKind.DISTRIBUTIVE,
        create=lambda: None,
        add=lambda acc, value: value if acc is None else min(acc, value),
        merge=lambda a, b: b if a is None else (a if b is None else min(a, b)),
        finalize=lambda acc: acc,
    )
)

register(
    AggregateFunction(
        "max",
        FunctionKind.DISTRIBUTIVE,
        create=lambda: None,
        add=lambda acc, value: value if acc is None else max(acc, value),
        merge=lambda a, b: b if a is None else (a if b is None else max(a, b)),
        finalize=lambda acc: acc,
    )
)


# ---------------------------------------------------------------------------
# Algebraic functions (fixed-size partial state)
# ---------------------------------------------------------------------------

def _avg_add(acc, value):
    acc[0] += value
    acc[1] += 1
    return acc


def _avg_merge(a, b):
    a[0] += b[0]
    a[1] += b[1]
    return a


register(
    AggregateFunction(
        "avg",
        FunctionKind.ALGEBRAIC,
        create=lambda: [0.0, 0],
        add=_avg_add,
        merge=_avg_merge,
        finalize=lambda acc: acc[0] / acc[1],
    )
)


def _var_add(acc, value):
    # (count, mean, M2) via Welford's online update.
    count, mean, m2 = acc
    count += 1
    delta = value - mean
    mean += delta / count
    m2 += delta * (value - mean)
    acc[0], acc[1], acc[2] = count, mean, m2
    return acc


def _var_merge(a, b):
    # Chan et al. parallel variance combination.
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    if count_b == 0:
        return a
    if count_a == 0:
        a[0], a[1], a[2] = count_b, mean_b, m2_b
        return a
    count = count_a + count_b
    delta = mean_b - mean_a
    a[0] = count
    a[1] = mean_a + delta * count_b / count
    a[2] = m2_a + m2_b + delta * delta * count_a * count_b / count
    return a


register(
    AggregateFunction(
        "variance",
        FunctionKind.ALGEBRAIC,
        create=lambda: [0, 0.0, 0.0],
        add=_var_add,
        merge=_var_merge,
        finalize=lambda acc: acc[2] / acc[0],
    )
)

register(
    AggregateFunction(
        "stddev",
        FunctionKind.ALGEBRAIC,
        create=lambda: [0, 0.0, 0.0],
        add=_var_add,
        merge=_var_merge,
        finalize=lambda acc: math.sqrt(acc[2] / acc[0]),
    )
)


# ---------------------------------------------------------------------------
# Holistic functions (state proportional to the input)
# ---------------------------------------------------------------------------

def _collect_add(acc, value):
    acc.append(value)
    return acc


def _collect_merge(a, b):
    a.extend(b)
    return a


def _median_finalize(values: list) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


register(
    AggregateFunction(
        "median",
        FunctionKind.HOLISTIC,
        create=list,
        add=_collect_add,
        merge=_collect_merge,
        finalize=_median_finalize,
    )
)


def numeric_suffix(value: float) -> str:
    """Render a number as an identifier-safe suffix (``0.5`` -> ``0_5``).

    Registry names must be valid query-language identifiers so that
    serialized workflows parse back; dots and minus signs are not.
    """
    return f"{value:g}".replace(".", "_").replace("-", "m")


def quantile_function(q: float) -> AggregateFunction:
    """An exact (holistic) q-quantile aggregate; registered lazily."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction {q} outside [0, 1]")
    name = f"quantile_{numeric_suffix(q)}"
    if name in _REGISTRY:
        return _REGISTRY[name]

    def finalize(values: list):
        ordered = sorted(values)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    return register(
        AggregateFunction(
            name,
            FunctionKind.HOLISTIC,
            create=list,
            add=_collect_add,
            merge=_collect_merge,
            finalize=finalize,
            quantile=q,
        )
    )


register(
    AggregateFunction(
        "count_distinct",
        FunctionKind.HOLISTIC,
        create=set,
        add=lambda acc, value: (acc.add(value), acc)[1],
        merge=lambda a, b: (a.update(b), a)[1],
        finalize=len,
    )
)


# ---------------------------------------------------------------------------
# Scalar expressions (used by the `combine` slot of composite measures)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """A named scalar combiner over one value per source measure."""

    name: str
    arity: int
    apply: Callable

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(
                f"expression {self.name!r} expects {self.arity} inputs, "
                f"got {len(args)}"
            )
        return self.apply(*args)


def _safe_ratio(a, b):
    """Division with deterministic, equality-safe zero handling.

    ``0/0`` is 0 (an empty region contributes nothing) and ``a/0``
    carries the numerator's sign; NaN is never produced because result
    sets compare by equality across evaluation plans.
    """
    if b:
        return a / b
    if not a:
        return 0.0
    return math.copysign(math.inf, a)


IDENTITY = Expression("identity", 1, lambda x: x)
RATIO = Expression("ratio", 2, _safe_ratio)
DIFFERENCE = Expression("difference", 2, lambda a, b: a - b)
PRODUCT = Expression("product", 2, lambda a, b: a * b)
TOTAL = Expression("total", 2, lambda a, b: a + b)


def expression(fn: Callable, arity: int, name: str | None = None) -> Expression:
    """Wrap an arbitrary callable as a combine expression."""
    return Expression(name or getattr(fn, "__name__", "expr"), arity, fn)


def all_partial_capable(functions: Sequence[AggregateFunction]) -> bool:
    """True when every function admits mapper-side partial aggregation."""
    return all(fn.supports_partial_aggregation for fn in functions)
