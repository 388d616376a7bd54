"""The vectorised partitioner equals the per-key one on every row.

:meth:`BlockRows.split` hashes a whole key matrix at once
(:func:`~repro.mapreduce.engine.hash_matrix`); :func:`default_partitioner`
on each row's plain-int tuple stays the definition, so the two must
agree bit for bit -- a block that moved would move Figure 4's tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cube.batches import RecordBatch
from repro.mapreduce.engine import default_partitioner, hash_matrix
from repro.optimizer.optimizer import Optimizer
from repro.parallel.executor import route_block_rows
from repro.workload import (
    all_queries,
    generate_skewed,
    generate_uniform,
    paper_schema,
)

INT64_MAX = 2**63 - 1

#: Values at every decimal digit boundary of an int64, and their
#: neighbours: where a row's ``repr`` grows by one byte.
BOUNDARIES = sorted(
    {0, 1, INT64_MAX}
    | {10**k - 1 for k in range(1, 19)}
    | {10**k for k in range(1, 19)}
)

values = st.one_of(
    st.sampled_from(BOUNDARIES),
    st.sampled_from(BOUNDARIES).map(lambda value: -value),
    st.integers(0, 1000),
    st.integers(-(2**63), INT64_MAX),
)


@st.composite
def key_matrices(draw):
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.lists(values, min_size=width, max_size=width), max_size=40,
    ))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def per_key(matrix: np.ndarray, num_reducers: int) -> list[int]:
    return [
        default_partitioner(tuple(row), num_reducers)
        for row in matrix.tolist()
    ]


@settings(deadline=None, max_examples=300)
@given(
    matrix=key_matrices(),
    num_reducers=st.sampled_from([1, 2, 3, 7, 8, 16, 97]),
)
def test_matrix_form_equals_per_key(matrix, num_reducers):
    assert (hash_matrix(matrix) % num_reducers).tolist() == per_key(
        matrix, num_reducers
    )


def test_empty_matrix():
    assert hash_matrix(np.zeros((0, 3), dtype=np.int64)).tolist() == []


SCHEMA = paper_schema(days=3, temporal_base="minute")


@pytest.mark.parametrize("generator", ["uniform", "skewed"])
@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
def test_routed_query_keys(name, generator):
    """Every block of Q1-Q6 lands where the per-key partitioner puts it,
    through :meth:`BlockRows.split` as both backends call it."""
    if generator == "uniform":
        records = generate_uniform(SCHEMA, 600, seed=17)
    else:
        records = generate_skewed(SCHEMA, 600, seed=17, skew_fraction=0.25)
    workflow = all_queries(SCHEMA)[name]
    plan = Optimizer().plan_query(workflow, len(records), num_reducers=8)
    blocks = route_block_rows(
        [subplan.scheme.make_batch_router() for _c, subplan in plan.subplans],
        RecordBatch.from_records(SCHEMA, records),
    )
    assert blocks.keys == [tuple(row) for row in blocks.key_matrix.tolist()]
    for num_reducers in (2, 3, 8):
        assert (
            hash_matrix(blocks.key_matrix) % num_reducers
        ).tolist() == per_key(blocks.key_matrix, num_reducers)
        split = blocks.split(default_partitioner, num_reducers)
        for reducer, share in split:
            assert {
                default_partitioner(key, num_reducers) for key in share.keys
            } == {reducer}
        assert sum(len(share.keys) for _r, share in split) == len(blocks.keys)
