"""Test helpers: an independent brute-force reference evaluator.

Deliberately naive (nested loops, no sorting, no sharing with the library
internals beyond the data model) so it can serve as an oracle for both
the centralized sort/scan evaluator and the parallel executors.
"""

from __future__ import annotations

import re
from collections import defaultdict

from repro.local import operators, sortscan, vectorized
from repro.local.measure_table import MeasureTable
from repro.local.sortscan import BlockEvaluator, LocalStats
from repro.local.vectorized import VectorizedBlockEvaluator
from repro.parallel.executor import (
    _PARTIAL,
    _PARTIAL_STATE_BYTES,
    ParallelEvaluator,
)
from repro.parallel.shm import ShmBucket
from repro.query.measures import Relationship


def reference_evaluate(workflow, records):
    """{measure name: {coords: value}} computed the slow, obvious way."""
    tables: dict[str, dict] = {}
    schema = workflow.schema
    for measure in workflow.topological_order():
        granularity = measure.granularity
        if measure.is_basic:
            field_index = schema.field_index(measure.field)
            groups = defaultdict(list)
            for record in records:
                groups[granularity.coordinates_of(record)].append(
                    record[field_index]
                )
            tables[measure.name] = {
                coords: measure.aggregate.aggregate(values)
                for coords, values in groups.items()
            }
            continue

        edge_values = []  # per edge: (dict coords -> value, anchors?)
        for edge in measure.inputs:
            source = tables[edge.source.name]
            relationship = edge.relationship
            if relationship is Relationship.SELF:
                edge_values.append((dict(source), True))
            elif relationship is Relationship.ROLLUP:
                children = defaultdict(list)
                for coords, value in source.items():
                    parent = edge.source.granularity.map_coords(
                        coords, granularity
                    )
                    children[parent].append(value)
                edge_values.append(
                    (
                        {
                            parent: edge.aggregate.aggregate(values)
                            for parent, values in children.items()
                        },
                        True,
                    )
                )
            elif relationship is Relationship.SIBLING:
                axis = schema.attribute_index(edge.window.attribute)
                result = {}
                for coords in source:
                    values = [
                        value
                        for other, value in source.items()
                        if other[:axis] == coords[:axis]
                        and other[axis + 1 :] == coords[axis + 1 :]
                        and coords[axis] + edge.window.low
                        <= other[axis]
                        <= coords[axis] + edge.window.high
                    ]
                    if values:  # empty windows produce no row
                        result[coords] = edge.aggregate.aggregate(values)
                edge_values.append((result, True))
            else:  # ALIGN: resolved per candidate below.
                edge_values.append((source, False))

        anchored = [table for table, is_anchor in edge_values if is_anchor]
        if anchored:
            candidates = set(anchored[0])
            for table in anchored[1:]:
                candidates &= set(table)
        else:
            candidates = {
                granularity.coordinates_of(record) for record in records
            }

        combine = measure.effective_combine
        rows = {}
        for coords in candidates:
            values = []
            ok = True
            for (table, is_anchor), edge in zip(edge_values, measure.inputs):
                if is_anchor:
                    value = table.get(coords)
                else:
                    parent = granularity.map_coords(
                        coords, edge.source.granularity
                    )
                    value = table.get(parent)
                if value is None:
                    ok = False
                    break
                values.append(value)
            if ok:
                rows[coords] = combine(*values)
        tables[measure.name] = rows
    return tables


def count_block_evaluations(monkeypatch) -> list:
    """Record every block evaluation in the returned list.

    An evaluated input runs either as one columnar pass of a
    :class:`VectorizedBlockEvaluator` or through one
    ``BlockEvaluator.evaluate`` call (the scalar half), never both.
    """
    calls: list = []
    for owner, method in (
        (BlockEvaluator, "evaluate"),
        (VectorizedBlockEvaluator, "_evaluate_matrix"),
    ):
        original = getattr(owner, method)

        def counting(self, *args, _original=original, **kwargs):
            calls.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, method, counting)
    return calls


def typed(result) -> dict:
    """(measure, region) -> (type, repr): equal exactly when every
    value's bits and Python type are."""
    return {
        (name, coords): (type(value), repr(value))
        for name, table in result.items()
        for coords, value in table.items()
    }


def refuse_dict_operators(monkeypatch) -> None:
    """Make the dict composite operators raise wherever the product
    could call them."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("the product called a dict composite operator")

    for module, name in (
        (sortscan, "compute_composite"),
        (vectorized, "compute_composite"),
        (sortscan, "rollup"),
        (sortscan, "sibling_window"),
        (operators, "rollup"),
        (operators, "sibling_window"),
    ):
        monkeypatch.setattr(module, name, refuse)


def assert_results_match(result_set, reference, approx=1e-9):
    """Compare a ResultSet against the reference dict-of-dicts."""
    assert set(result_set.tables) == set(reference)
    for name, expected in reference.items():
        actual = result_set[name].values
        assert set(actual) == set(expected), (
            f"{name}: region sets differ "
            f"(extra={set(actual) - set(expected)}, "
            f"missing={set(expected) - set(actual)})"
        )
        for coords, value in expected.items():
            got = actual[coords]
            if isinstance(value, float) or isinstance(got, float):
                if got == value:  # covers inf == inf and exact floats
                    continue
                assert abs(got - value) <= approx * max(1.0, abs(value)), (
                    f"{name}{coords}: {got} != {value}"
                )
            else:
                assert got == value, f"{name}{coords}: {got} != {value}"


_PROM_SAMPLE_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def assert_valid_exposition(text):
    """Prometheus text: one ``# TYPE`` per family, legal sample names,
    and a float value on every sample line."""
    families = []
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            if line.startswith("# TYPE "):
                families.append(line.split()[2])
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        assert _PROM_SAMPLE_NAME.fullmatch(name), line
        float(line.rsplit(" ", 1)[1])
    duplicated = sorted(
        {family for family in families if families.count(family) > 1}
    )
    assert not duplicated, f"families declared twice: {duplicated}"


# -- the per-block reducer loops, kept as test oracles ------------------------


def per_block_reducer(
    plan, record_bytes, local_stats, served_blocks, early, tracer=None
):
    """The ``MapReduceJob`` reducer :class:`ParallelEvaluator` ran before
    it evaluated whole buckets: one :class:`BlockEvaluator` call, one
    owned-region filter and one set of clock charges per block.

    Built from the unlifted pieces only (``BlockEvaluator``,
    ``make_result_filter``, its own partial-state merge), so it shares
    nothing with the bucket reducer it is compared against.
    """
    evaluators = []
    filters = []
    basics_by_component = []
    for component, subplan in plan.subplans:
        evaluators.append(BlockEvaluator(component, tracer=tracer))
        filters.append(
            {
                measure.name: subplan.scheme.make_result_filter(
                    measure.granularity
                )
                for measure in component.measures
            }
        )
        basics_by_component.append(list(component.basic_measures()))

    def merge_partials(basics, values):
        merged = [{} for _ in basics]
        for tag, index, coords, state in sorted(
            values, key=lambda v: (v[1], v[2])
        ):
            assert tag == _PARTIAL
            existing = merged[index].get(coords)
            merged[index][coords] = (
                state
                if existing is None
                else basics[index].aggregate.merge(existing, state)
            )
        return {
            measure.name: MeasureTable(
                measure.granularity,
                {
                    coords: measure.aggregate.finalize(state)
                    for coords, state in merged[index].items()
                },
            )
            for index, measure in enumerate(basics)
        }

    def reducer(block_key, values, ctx):
        served_blocks.add(block_key)
        component_index = block_key[0]
        component_block = block_key[1:]
        evaluator = evaluators[component_index]
        stats = LocalStats()
        if early:
            tables = merge_partials(
                basics_by_component[component_index], values
            )
            ctx.charge_sort(len(values), len(values) * _PARTIAL_STATE_BYTES)
            result = evaluator.evaluate(basic_tables=tables, stats=stats)
            ctx.charge_eval(len(values))
        else:
            ctx.charge_sort(len(values), len(values) * record_bytes)
            result = evaluator.evaluate(values, stats=stats)
            ctx.charge_eval(stats.records + stats.output_rows)
        local_stats.merge(stats)

        component_filters = filters[component_index]
        for name, table in result.items():
            keep = component_filters[name](component_block)
            for coords, value in table.items():
                if keep(coords):
                    yield (name, coords, value)

    return reducer


def chunk_rows(chunks) -> list:
    """The ``(measure, region, value)`` rows of reducer output chunks
    (:func:`repro.local.lifting.unlift_outputs`), region tuples and
    values as plain Python objects."""
    rows = []
    for name, regions, values in chunks:
        if not isinstance(regions, list):
            regions = [tuple(region) for region in regions.tolist()]
            values = values.tolist()
        rows.extend((name, region, value) for region, value in zip(
            regions, values
        ))
    return rows


def per_block_task_rows(plan, schema, bucket):
    """The rows a :class:`~repro.parallel.multiprocess.MultiprocessEvaluator`
    worker task returned before it evaluated whole buckets: one
    evaluator call and one owned-region filter per block.

    *bucket* is a gather task's bucket in either transport: an
    :class:`~repro.parallel.shm.ShmBucket` (each block a fancy-indexed
    slice of the mapped batch, through :class:`VectorizedBlockEvaluator`)
    or a ``(block_key, records)`` list (through :class:`BlockEvaluator`).
    Built from the unlifted pieces only, with a filter for every key, so
    it shares nothing with the lifted worker it is compared against.
    """
    components = [component for component, _subplan in plan.subplans]
    filters = [
        {
            measure.name: subplan.scheme.make_result_filter(
                measure.granularity
            )
            for measure in component.measures
        }
        for component, subplan in plan.subplans
    ]

    def owned(block_key, result):
        component_filters = filters[block_key[0]]
        for name, table in result.items():
            keep = component_filters[name](block_key[1:])
            for coords, value in table.items():
                if keep(coords):
                    yield (name, coords, value)

    rows = []
    if not isinstance(bucket, ShmBucket):
        evaluators = [BlockEvaluator(component) for component in components]
        for block_key, records in bucket:
            result = evaluators[block_key[0]].evaluate(records)
            rows.extend(owned(block_key, result))
        return rows

    evaluators = [
        VectorizedBlockEvaluator(component) for component in components
    ]

    def evaluate_view(view):
        # Its own frame: every view into the mapping dies before close().
        batch = view.batch(schema)
        for block_key, block_rows in view.blocks():
            result = evaluators[block_key[0]].evaluate(
                batch.take(block_rows)
            )
            rows.extend(owned(block_key, result))

    view = bucket.attach()
    try:
        evaluate_view(view)
    finally:
        view.close()
    return rows


class PerBlockLoopEvaluator(ParallelEvaluator):
    """A :class:`ParallelEvaluator` whose reduce tasks run the per-block
    loop: same planning, map side, engine and reporting, so everything
    but the reducer is shared with the evaluator under test."""

    def _make_reducer(
        self, plan, record_bytes, local_stats, served_blocks, cancel
    ):
        reducer = per_block_reducer(
            plan,
            record_bytes,
            local_stats,
            served_blocks,
            early=self.config.early_aggregation,
            tracer=self.tracer,
        )

        def reduce_task(groups, ctx):
            # One single-row chunk per row: the union's input form.
            outputs = []
            for block_key, values in groups:
                outputs.extend(
                    (name, [coords], [value])
                    for name, coords, value in reducer(block_key, values, ctx)
                )
            return outputs

        return reduce_task
