"""Local (single-node) evaluation of composite subset measure queries."""

from repro.local.lifting import (
    lift_batch,
    lift_workflow,
    unlift_outputs,
    vectorized_bucket_evaluator,
)
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
from repro.local.vectorized import (
    VECTORIZED_AGGREGATES,
    VectorizedBlockEvaluator,
    batched_partial_states,
    evaluate_vectorized,
    vectorized_supports,
)

__all__ = [
    "BlockEvaluator",
    "LocalStats",
    "MeasureTable",
    "ResultSet",
    "VECTORIZED_AGGREGATES",
    "VectorizedBlockEvaluator",
    "align_candidates",
    "batched_partial_states",
    "choose_attribute_order",
    "compute_composite",
    "evaluate_centralized",
    "evaluate_vectorized",
    "is_prefix_compatible",
    "lift_batch",
    "lift_workflow",
    "make_sort_key",
    "rollup",
    "rollup_partials",
    "sibling_window",
    "unlift_outputs",
    "vectorized_bucket_evaluator",
    "vectorized_supports",
]
