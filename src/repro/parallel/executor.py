"""The one-round parallel evaluator (Section III).

One MapReduce job evaluates the whole composite query:

1. the workflow is split into weakly connected components (independent
   measure families need not share a key) and the optimizer picks a
   feasible distribution key and clustering factor per component;
2. mappers replicate each record into every block whose extended range
   needs it, once per component (overlapping redistribution); a map
   task whose records form an int matrix ships them as arrays -- block
   keys plus per-block row indices -- instead of one pair per replica;
3. each reducer sorts and scans its whole bucket once per component
   under a composite (block ordinal, local order) key -- the ordinal
   is a leading coordinate of every region, so blocks stay isolated --
   in one call of the component's lifted vectorized evaluator (its
   scalar half when the bucket holds record pairs or partial states),
   and filters each block's outputs to its owned region range, so
4. the final answer is the plain union of local results -- no combination
   step, and any duplicate is a hard error.

With ``early_aggregation`` enabled (and every basic measure distributive
or algebraic), mappers pre-aggregate their share of each block into
partial accumulator states and ship those instead of raw records
(Section III-D); reducers merge states and evaluate composites on top.
Partial aggregation folds values in a different order than the
centralized scan, so float-valued aggregates may differ from the
non-early run by floating-point rounding; integer aggregates stay
bit-identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from repro.cube.batches import RecordBatch, row_tuples
from repro.cube.records import Record, estimated_record_bytes
from repro.local.lifting import (
    evaluate_bucket,
    output_rows,
    vectorized_bucket_evaluator,
)
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.sortscan import LocalStats
from repro.local.vectorized import (
    batched_partial_states,
    vectorized_supports,
)
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.dfs import DistributedFile
from repro.mapreduce.engine import (
    KEY_BYTES,
    BlockRows,
    MapBatchOutput,
    MapReduceJob,
    ShuffleBucket,
)
from repro.optimizer.optimizer import (
    Optimizer,
    OptimizerConfig,
    Plan,
    QueryPlan,
)
from repro.obs.calibration import CalibrationReport
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.skew import KeyCache
from repro.query.workflow import Workflow, connected_components
from repro.parallel.cancel import CancellationToken
from repro.parallel.report import ColumnarStats, ParallelResult

#: Tag marking early-aggregation partial states in the value stream.
_PARTIAL = "__partial__"

#: Charged size of one partial accumulator state: the region coordinates
#: plus a fixed-size accumulator come out at about one record's width.
_PARTIAL_STATE_BYTES = 64


logger = logging.getLogger(__name__)


class DuplicateResultError(RuntimeError):
    """Two blocks output the same measure region: the scheme is broken."""


@dataclass(frozen=True)
class ExecutionConfig:
    """Knobs of the parallel evaluation.

    *partitioner* assigns blocks to reducers: ``"hash"`` (the random
    assignment the paper's cost model assumes) or ``"round_robin"``
    (consecutive blocks to consecutive reducers -- better balanced when
    block sizes are uniform, which the hash/model view treats as the
    pessimistic random case).
    """

    num_reducers: Optional[int] = None
    early_aggregation: bool = False
    combined_sort: bool = False
    partitioner: str = "hash"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.partitioner not in ("hash", "round_robin"):
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; choose "
                "'hash' or 'round_robin'"
            )
        if self.partitioner != "hash" and self.optimizer.use_sampling:
            # Simulated dispatch predicts loads under hash assignment;
            # letting it pick a plan that will execute under a different
            # partitioner would measure the wrong thing.
            raise ValueError(
                "sampling-based planning assumes the hash partitioner; "
                "use partitioner='hash' together with sampling"
            )


class ParallelEvaluator:
    """Evaluates workflows on a simulated cluster, one job per query.

    *tracer* (a :class:`repro.obs.Tracer`) records the evaluation's
    span tree -- optimize, map, shuffle, sort, evaluate, per-slot task
    placements.  *telemetry* (a
    :class:`repro.obs.telemetry.TelemetryRegistry`) receives live phase
    progress and throughput rates while the job runs, then each job's
    counters (``job.<field>``), reducer loads, phase makespans, the
    optimizer's predicted-versus-actual max load (``optimizer.*``) and
    the calibration errors (``calibration.*``).  Both default to
    disabled no-ops.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExecutionConfig | None = None,
        tracer=None,
        telemetry=None,
    ):
        self.cluster = cluster
        self.config = config or ExecutionConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.optimizer = Optimizer(self.config.optimizer, tracer=self.tracer)

    # -- input handling -------------------------------------------------------------

    def _resolve_input(
        self, data: Sequence[Record] | DistributedFile
    ) -> DistributedFile:
        if isinstance(data, DistributedFile):
            return data
        return self.cluster.dfs.write("query-input", list(data))

    def _resolve_plan(
        self,
        workflow: Workflow,
        input_file: DistributedFile,
        plan: QueryPlan | Plan | None,
        key_cache: KeyCache | None,
    ) -> QueryPlan:
        components = connected_components(workflow)
        if isinstance(plan, QueryPlan):
            # A pre-built plan may group several weakly-connected
            # components under one shared subplan (batch co-evaluation),
            # so validate measure coverage rather than component count.
            plan_names = sorted(
                name
                for subplan_workflow, _plan in plan.subplans
                for name in subplan_workflow.names
            )
            if plan_names != sorted(workflow.names):
                raise ValueError(
                    f"plan covers measures {plan_names}, query has "
                    f"{sorted(workflow.names)}"
                )
            return plan
        if isinstance(plan, Plan):
            if len(components) != 1:
                raise ValueError(
                    "a bare Plan only fits a single-component query; "
                    "pass a QueryPlan"
                )
            return QueryPlan([(components[0], plan)])
        num_reducers = self.config.num_reducers or self.cluster.reduce_slots
        sample_source = None
        if self.config.optimizer.use_sampling:
            from repro.optimizer.skew import sample_file_records

            # Draw only the sample, not a full copy of the dataset; the
            # optimizer samples from this pre-drawn pool.
            sample_source = sample_file_records(
                input_file,
                self.config.optimizer.sample_size,
                self.config.optimizer.sample_seed,
            )
        return self.optimizer.plan_query(
            workflow,
            n_records=input_file.num_records,
            num_reducers=num_reducers,
            records=sample_source,
            key_cache=key_cache,
        )

    # -- map/reduce closures -----------------------------------------------------------

    @staticmethod
    def _make_mapper(plan: QueryPlan):
        """Record -> tagged block keys, one family per component."""
        component_mappers = [
            (index, subplan.scheme.make_mapper())
            for index, (_wf, subplan) in enumerate(plan.subplans)
        ]

        def mapper(record: Record):
            pairs = []
            for index, blocks_of in component_mappers:
                pairs.extend(
                    ((index,) + block_key, record)
                    for block_key in blocks_of(record)
                )
            return pairs

        return mapper

    @staticmethod
    def _component_basics(component: Workflow):
        schema = component.schema
        return [
            (
                local_index,
                measure,
                measure.granularity.coordinate_mapper(),
                schema.field_index(measure.field),
            )
            for local_index, measure in enumerate(component.basic_measures())
        ]

    def _make_combiner(self, plan: QueryPlan):
        """Early aggregation: records -> per-region partial states."""
        basics_by_component = [
            self._component_basics(component)
            for component, _plan in plan.subplans
        ]

        def combiner(block_key, records):
            basics = basics_by_component[block_key[0]]
            states: dict[tuple[int, tuple], object] = {}
            for record in records:
                for local_index, measure, mapper, field_index in basics:
                    slot = (local_index, mapper(record))
                    acc = states.get(slot)
                    if acc is None:
                        acc = measure.aggregate.create()
                    states[slot] = measure.aggregate.add(
                        acc, record[field_index]
                    )
            for (local_index, coords), state in states.items():
                yield (block_key, (_PARTIAL, local_index, coords, state))

        return combiner

    def _make_map_batch(
        self,
        plan: QueryPlan,
        record_bytes: int,
        stats: ColumnarStats,
    ):
        """Columnar map side: whole tasks routed and combined in batch.

        Returns the engine's ``map_batch`` hook.  Per task it builds one
        :class:`RecordBatch`, routes it through every component's
        vectorized block router, and -- under early aggregation --
        produces the partial states with grouped reduceat aggregation,
        falling back to the scalar combiner for components it cannot
        compute bit-identically.  Without early aggregation, a task
        whose records form an int matrix ships them as one
        :class:`~repro.mapreduce.engine.BlockRows` instead of pairs.
        Tasks whose records are not routable return ``None``, which the
        engine answers with the scalar mapper path.
        """
        schema = plan.subplans[0][0].schema
        routers = [
            subplan.scheme.make_batch_router()
            for _wf, subplan in plan.subplans
        ]
        components = [component for component, _plan in plan.subplans]
        early = self.config.early_aggregation
        scalar_combiner = self._make_combiner(plan) if early else None

        def map_batch(records) -> MapBatchOutput | None:
            batch = RecordBatch.from_records(schema, records)
            if batch is None or not batch.routable():
                # No batch at all, or typed dimension columns that the
                # hierarchy level arrays cannot map: scalar mapper path.
                stats.fallback_tasks += 1
                stats.fallback_records += len(records)
                return None
            stats.batch_tasks += 1
            stats.batch_records += len(batch)
            if not early and batch.matrix is not None:
                blocks = route_block_rows(routers, batch, records)
                return MapBatchOutput(
                    pairs=[], emitted_pairs=len(blocks), blocks=blocks
                )
            pairs: list = []
            emitted = 0
            for index, router in enumerate(routers):
                if not early:
                    for full_key, rows in router(batch, (index,)):
                        emitted += len(rows)
                        pairs.extend(
                            [(full_key, records[i]) for i in rows.tolist()]
                        )
                    continue
                raw_keys, raw_rows, varying = router(
                    batch, (index,), raw=True
                )
                emitted += len(raw_rows)
                if not len(raw_rows):
                    continue
                fused = batched_partial_states(
                    components[index], batch.matrix, raw_keys, raw_rows,
                    varying,
                )
                if fused is None:
                    # Scalar-combiner fallback (unsupported aggregate or
                    # overflow risk): re-route grouped, per-block lists.
                    full_keys, flat_rows, counts, _matrix = router(
                        batch, (index,), flat=True
                    )
                    stats.scalar_groups += len(full_keys)
                    offsets = np.append(0, np.cumsum(counts)).tolist()
                    row_list = flat_rows.tolist()
                    for block_id, full_key in enumerate(full_keys):
                        members = [
                            records[i]
                            for i in row_list[
                                offsets[block_id]:offsets[block_id + 1]
                            ]
                        ]
                        pairs.extend(scalar_combiner(full_key, members))
                else:
                    full_keys, partials = fused
                    stats.vector_groups += len(full_keys)
                    # Pure C-level assembly: zip() builds the value and
                    # pair tuples, map() resolves block keys -- no
                    # bytecode runs per partial.
                    for local_index, ids, regions, states in partials:
                        pairs.extend(
                            zip(
                                map(full_keys.__getitem__, ids),
                                zip(
                                    repeat(_PARTIAL),
                                    repeat(local_index),
                                    regions,
                                    states,
                                ),
                            )
                        )
            if early:
                return MapBatchOutput(
                    pairs=pairs,
                    emitted_pairs=emitted,
                    combine_inputs=emitted,
                    combine_bytes=emitted * (KEY_BYTES + record_bytes),
                    combined=True,
                )
            return MapBatchOutput(pairs=pairs, emitted_pairs=emitted)

        return map_batch

    def _make_partitioner(self, plan: QueryPlan):
        """Block -> reducer assignment per ExecutionConfig.partitioner."""
        if self.config.partitioner == "hash":
            from repro.mapreduce.engine import default_partitioner

            return default_partitioner

        # Round-robin over the per-component linearized block grids;
        # components are offset so their blocks interleave fairly.
        schemes = [subplan.scheme for _wf, subplan in plan.subplans]
        offsets = []
        total = 0
        for scheme in schemes:
            offsets.append(total)
            total += scheme.num_blocks()

        def partitioner(block_key, num_reducers: int) -> int:
            component_index = block_key[0]
            scheme = schemes[component_index]
            linear = scheme.linear_index(block_key[1:])
            return (offsets[component_index] + linear) % num_reducers

        return partitioner

    def _make_reducer(
        self,
        plan: QueryPlan,
        record_bytes: int,
        local_stats: LocalStats,
        served_blocks: set,
        cancel: CancellationToken | None,
    ):
        """The engine's ``reduce_task`` hook: one sort/scan per bucket.

        All of a reduce task's blocks of one component are evaluated in
        a single call of a lifted evaluator
        (:func:`repro.local.lifting.evaluate_bucket`): every record --
        or, under early aggregation, every partial state's region -- is
        tagged with its block's ordinal in the bucket, which leads the
        sort key and is a coordinate of every region, so no measure can
        cross a block.  A columnar bucket goes to the vectorized
        evaluator as one batch.  The ordinal is stripped from the
        output, the owned-region filter runs only under keys with an
        annotated component, and the virtual clock is charged block by
        block in block order, exactly as a per-block loop would charge
        it.
        """
        schema = plan.subplans[0][0].schema
        evaluators, filters = bucket_evaluators(
            [
                (component, subplan.scheme)
                for component, subplan in plan.subplans
            ],
            tracer=self.tracer,
        )
        basics_by_component = [
            list(evaluator.workflow.basic_measures())
            for evaluator in evaluators
        ]
        early = self.config.early_aggregation
        value_width = _PARTIAL_STATE_BYTES if early else record_bytes
        check = cancel.check if cancel is not None else None

        def partial_tables(component_index, blocks):
            return _merge_partials(
                basics_by_component[component_index], blocks
            )

        def reduce_task(groups, ctx):
            columns = None
            if isinstance(groups, ShuffleBucket):
                columns = groups.columnar()
            if columns is not None:
                keys = columns.keys
                sizes = columns.counts.tolist()
                rows = RecordBatch(schema, columns.matrix)
            else:
                keys, rows = [], []
                for block_key, values in groups:
                    keys.append(block_key)
                    rows.append(values)
                sizes = [len(values) for values in rows]
            # A set, not a counter: fault-tolerant retries may re-run a
            # block, but it still counts once toward calibration.
            served_blocks.update(keys)
            outputs: list = []
            stats = LocalStats()
            done = evaluate_bucket(
                evaluators,
                filters,
                keys,
                sizes,
                rows,
                outputs,
                stats=stats,
                check=check,
                basic_tables=partial_tables if early else None,
            )
            local_stats.merge(stats)
            for _component, positions, produced in done:
                for position, made in zip(positions, produced):
                    size = sizes[position]
                    ctx.charge_sort(size, size * value_width)
                    ctx.charge_eval(size if early else size + made)
            return outputs

        return reduce_task

    # -- whole query ----------------------------------------------------------------------

    def evaluate(
        self,
        workflow: Workflow,
        data: Sequence[Record] | DistributedFile,
        plan: QueryPlan | Plan | None = None,
        key_cache: KeyCache | None = None,
        cancel: CancellationToken | None = None,
    ) -> ParallelResult:
        """Evaluate *workflow* over *data*; returns results and the trace.

        A pre-built *plan* bypasses the optimizer (used by benchmarks to
        sweep clustering factors); otherwise the optimizer plans with the
        configured strategy, consulting *key_cache* when given.

        *cancel* (a :class:`repro.parallel.cancel.CancellationToken`)
        makes the evaluation cooperative: the token is checked before
        planning, per map task, and per reduce task and component, and a
        tripped token unwinds the run with
        :class:`~repro.parallel.cancel.DeadlineExceededError`.
        """
        if self.config.early_aggregation and not (
            workflow.supports_early_aggregation()
        ):
            raise ValueError(
                "this workflow does not support early aggregation: every "
                "basic measure must be distributive or algebraic, and "
                "every parent/child-only composite needs a finer basic "
                "measure in its component to anchor its regions"
            )

        if cancel is not None:
            cancel.check()
        with self.tracer.span(
            "evaluate-query", measures=len(workflow)
        ) as root:
            input_file = self._resolve_input(data)
            with self.tracer.span("optimize") as optimize_span:
                query_plan = self._resolve_plan(
                    workflow, input_file, plan, key_cache
                )
                optimize_span.set(
                    components=len(query_plan.subplans),
                    predicted_max_load=query_plan.predicted_max_load,
                    plan=query_plan.describe(),
                )

            record_bytes = estimated_record_bytes(workflow.schema)
            local_stats = LocalStats()
            served_blocks: set = set()
            # The batched map side (vectorized block routing and, under
            # early aggregation, the reduceat combiner) needs a vectorized
            # implementation of every basic measure; a map task whose
            # records are not an integer batch still falls back alone.
            use_columnar = vectorized_supports(workflow)
            columnar_stats = ColumnarStats() if use_columnar else None
            mapper = self._make_mapper(query_plan)
            reduce_task = self._make_reducer(
                query_plan, record_bytes, local_stats, served_blocks, cancel
            )
            map_batch = (
                self._make_map_batch(
                    query_plan, record_bytes, columnar_stats
                )
                if use_columnar
                else None
            )
            if cancel is not None:
                cancel.check()
                mapper = _cancellable(mapper, cancel)
                reduce_task = _cancellable(reduce_task, cancel)
                if map_batch is not None:
                    map_batch = _cancellable(map_batch, cancel)
            job = MapReduceJob(
                mapper=mapper,
                reducer=None,
                reduce_task=reduce_task,
                num_reducers=query_plan.num_reducers,
                combiner=(
                    self._make_combiner(query_plan)
                    if self.config.early_aggregation
                    else None
                ),
                partitioner=self._make_partitioner(query_plan),
                map_batch=map_batch,
                record_bytes=record_bytes,
                value_bytes=_value_bytes(record_bytes),
                combined_sort=self.config.combined_sort,
                output_rows=output_rows,
                name="composite-query",
            )
            logger.info(
                "evaluating %d measures over %d records: %s",
                len(workflow),
                input_file.num_records,
                query_plan.describe(),
            )
            job_result = job.run(
                input_file,
                self.cluster,
                tracer=self.tracer,
                telemetry=self.telemetry,
            )
            logger.info("job finished: %s", job_result.report.summary())

            result = union_outputs(workflow, job_result.outputs)
            calibration = CalibrationReport.from_run(
                query_plan,
                job_result.report,
                record_bytes=record_bytes,
                key_bytes=KEY_BYTES,
                early_aggregation=self.config.early_aggregation,
                actual_blocks=len(served_blocks),
            )
            root.set_sim(0.0, job_result.report.response_time)
            root.set(rows=result.total_rows())
            root.set(calibration_error=calibration.max_load_error)
            if columnar_stats is not None:
                root.set(columnar=columnar_stats.to_dict())
        if self.telemetry.enabled:
            self._record_job(
                query_plan, job_result.report, calibration, columnar_stats
            )
        return ParallelResult(
            result=result,
            plan=query_plan,
            job=job_result.report,
            local_stats=local_stats,
            columnar=columnar_stats,
            calibration=calibration,
        )

    def _record_job(
        self, query_plan: QueryPlan, report, calibration, columnar_stats
    ) -> None:
        """Feed one finished job's outcome into the telemetry registry."""
        telemetry = self.telemetry
        telemetry.record_job_counters(report.counters)
        if calibration is not None:
            for name in (
                "max_load_error",
                "shipped_records_error",
                "shuffle_bytes_error",
                "blocks_error",
            ):
                value = getattr(calibration, name)
                if value is not None:
                    telemetry.set_gauge(f"calibration.{name}", value)
        if columnar_stats is not None:
            for name, value in columnar_stats.to_dict().items():
                if isinstance(value, (int, float)):
                    telemetry.inc(f"columnar.{name}", value)
        for load in report.reducer_loads:
            telemetry.observe("job.reducer_load", load)
        telemetry.set_gauge("job.response_time", report.response_time)
        telemetry.set_gauge("job.map_makespan", report.map_makespan)
        telemetry.set_gauge("job.reduce_makespan", report.reduce_makespan)
        telemetry.set_gauge("job.load_imbalance", report.load_imbalance)
        telemetry.set_gauge("job.actual_max_load", report.max_reducer_load)
        telemetry.set_gauge(
            "optimizer.predicted_max_load", query_plan.predicted_max_load
        )
        for index, (_component, subplan) in enumerate(query_plan.subplans):
            prefix = f"optimizer.component{index}."
            telemetry.set_gauge(
                prefix + "predicted_max_load", subplan.predicted_max_load
            )
            telemetry.set_gauge(
                prefix + "blocks", subplan.scheme.num_blocks()
            )
            telemetry.inc(
                prefix + "candidates_considered",
                subplan.candidates_considered,
            )
            for attr, cf in subplan.scheme.clustering_factors.items():
                telemetry.set_gauge(prefix + f"cf.{attr}", cf)
        telemetry.inc("job.completed")


def bucket_evaluators(schemes, tracer=None) -> tuple[list, list]:
    """``(evaluators, filters)`` for *schemes*, ``(component, block
    scheme)`` pairs: each component's lifted evaluator and, under a key
    with an annotated component, each measure's owned-region filter
    (``None`` otherwise: every block owns all it computes).  What
    :func:`~repro.local.lifting.evaluate_bucket` takes, on either
    backend."""
    evaluators = []
    filters = []
    for component, scheme in schemes:
        evaluators.append(
            vectorized_bucket_evaluator(component, tracer=tracer)
        )
        filters.append(
            {
                measure.name: scheme.make_result_filter(measure.granularity)
                for measure in component.measures
            }
            if scheme.key.is_overlapping
            else None
        )
    return evaluators, filters


def _cancellable(fn, cancel: CancellationToken):
    """Check *cancel* before every call into *fn* (map or reduce task)."""

    def guarded(*args, **kwargs):
        cancel.check()
        return fn(*args, **kwargs)

    return guarded


def _merge_partials(basics, blocks) -> dict[str, MeasureTable]:
    """Merge a bucket's shipped accumulator states into basic tables.

    *blocks* holds one list of shipped values per block of the bucket
    and *basics* the lifted basic measures: each state's region gains
    its block's ordinal as leading coordinate, so states of different
    blocks never merge.  States merge in sorted (measure, region) order
    so results are deterministic regardless of shuffle arrival order.
    For float-valued algebraic aggregates the merge order still differs
    from the centralized per-record fold, so values may differ from a
    non-early run by floating-point rounding -- an inherent property of
    partial aggregation, not of this implementation.
    """
    tagged = []
    for ordinal, values in enumerate(blocks):
        lead = (ordinal,)
        for value in values:
            if value[0] != _PARTIAL:
                raise ValueError(
                    "early aggregation reducer received a raw record; "
                    "the combiner did not run"
                )
            tagged.append((value[1], lead + value[2], value[3]))
    tagged.sort(key=itemgetter(0, 1))
    merged: list[dict[tuple, object]] = [{} for _ in basics]
    for index, coords, state in tagged:
        measure = basics[index]
        existing = merged[index].get(coords)
        merged[index][coords] = (
            state
            if existing is None
            else measure.aggregate.merge(existing, state)
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


def _value_bytes(record_bytes: int):
    def size(value) -> int:
        if isinstance(value, tuple) and value and value[0] == _PARTIAL:
            return _PARTIAL_STATE_BYTES
        return record_bytes

    return size


def union_outputs(workflow: Workflow, chunks) -> ResultSet:
    """Union the reduce tasks' ``(measure, regions, values)`` chunks.

    Fails loudly on any duplicated region -- the invariant a feasible
    distribution scheme guarantees.  Shared by both backends: each
    gathers one chunk list per reduce task, every row already filtered
    to the region its block owns (see
    :func:`~repro.local.lifting.unlift_outputs`).  Each chunk goes into
    its table with one ``update(zip(...))``; chunks holding the same
    region matrix share one list of region tuples.  A duplicate shows
    as fewer regions than rows, and only then are the chunks walked
    again, row by row, to name the first one.
    """
    chunks = chunks if isinstance(chunks, list) else list(chunks)
    tables = {
        measure.name: MeasureTable(measure.granularity)
        for measure in workflow.measures
    }
    sinks = {name: table.values for name, table in tables.items()}
    # id(region matrix) -> (the matrix, its row tuples).
    shared: dict[int, tuple] = {}

    def rows_of(chunk) -> tuple[list, list]:
        _name, regions, values = chunk
        if not isinstance(regions, np.ndarray):
            return regions, values
        entry = shared.get(id(regions))
        if entry is None:
            entry = shared[id(regions)] = (regions, row_tuples(regions))
        return entry[1], values.tolist()

    total = 0
    for chunk in chunks:
        regions, values = rows_of(chunk)
        sinks[chunk[0]].update(zip(regions, values))
        total += len(values)
    if sum(map(len, sinks.values())) != total:
        seen: set = set()
        for chunk in chunks:
            name = chunk[0]
            for coords in rows_of(chunk)[0]:
                if (name, coords) in seen:
                    raise DuplicateResultError(
                        f"measure {name!r} produced region {coords!r} from "
                        "two different blocks; the distribution scheme is "
                        "not feasible"
                    )
                seen.add((name, coords))
    return ResultSet(tables)


def route_block_rows(routers, batch: RecordBatch, records) -> BlockRows:
    """Every component's blocks of one routable batch, as arrays: the
    map side of both backends.

    Each router returns its component's blocks in key order, and the
    component index leads every key, so the concatenation is in key
    order too.  *records* are what materialised groups hold; a typed
    batch has no int matrix, so only its row indices are of use.
    """
    keys, rows, counts, key_matrices = zip(
        *(
            router(batch, (index,), flat=True)
            for index, router in enumerate(routers)
        )
    )
    return BlockRows(
        [key for component_keys in keys for key in component_keys],
        np.concatenate(key_matrices),
        np.concatenate(counts),
        np.concatenate(rows),
        batch.matrix,
        records,
    )
