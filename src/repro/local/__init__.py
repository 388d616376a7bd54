"""Local (single-node) evaluation of composite subset measure queries."""

from repro.local.lifting import bucket_evaluator, lift_workflow
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.operators import (
    align_candidates,
    rollup,
    rollup_partials,
    sibling_window,
)
from repro.local.sortscan import (
    BlockEvaluator,
    LocalStats,
    choose_attribute_order,
    compute_composite,
    evaluate_centralized,
    is_prefix_compatible,
    make_sort_key,
)

#: Vectorized evaluation API, loaded lazily (repro.local.vectorized
#: needs NumPy, which the scalar sort-scan path does not).
_VECTORIZED_EXPORTS = (
    "VECTORIZED_AGGREGATES",
    "VectorizedBlockEvaluator",
    "batched_partial_states",
    "evaluate_vectorized",
    "vectorized_supports",
)


def __getattr__(name):
    if name in _VECTORIZED_EXPORTS:
        from repro.local import vectorized

        return getattr(vectorized, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BlockEvaluator",
    "LocalStats",
    "MeasureTable",
    "ResultSet",
    "VECTORIZED_AGGREGATES",
    "VectorizedBlockEvaluator",
    "align_candidates",
    "batched_partial_states",
    "bucket_evaluator",
    "choose_attribute_order",
    "compute_composite",
    "evaluate_centralized",
    "evaluate_vectorized",
    "is_prefix_compatible",
    "lift_workflow",
    "make_sort_key",
    "rollup",
    "rollup_partials",
    "sibling_window",
    "vectorized_supports",
]
