"""The one-round parallel evaluator (Section III).

One round evaluates the whole composite query:

1. the workflow is split into weakly connected components (independent
   measure families need not share a key) and the optimizer picks a
   feasible distribution key and clustering factor per component;
2. the input is routed once: every record is replicated into every
   block whose extended range needs it, once per component
   (overlapping redistribution), and the blocks are split by reducer
   (:func:`scatter`, the map side of both backends) -- as block keys
   plus row indices into one batch when the records form one, as
   per-block record lists otherwise;
3. each reducer sorts and scans its whole bucket once per component
   under a composite (block ordinal, local order) key -- the ordinal
   is a leading coordinate of every region, so blocks stay isolated --
   in one call of the component's lifted vectorized evaluator (its
   scalar half for record lists or partial states), and filters each
   block's outputs to its owned region range, so
4. the final answer is the plain union of local results -- no combination
   step, and any duplicate is a hard error.

The simulated cluster only prices that one execution: its counts go to
:func:`~repro.mapreduce.engine.account`, which charges the virtual
clock.  The process backend (:mod:`repro.parallel.multiprocess`) runs
the same steps and differs only in where buckets are evaluated.

With ``early_aggregation`` enabled (and every basic measure distributive
or algebraic), each DFS split pre-aggregates its share of each block
into partial accumulator states, shipped instead of raw records
(Section III-D); reducers merge states and evaluate composites on top.
Partial aggregation folds values in a different order than the
centralized scan, so float-valued aggregates may differ from the
non-early run by floating-point rounding; integer aggregates stay
bit-identical.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.cube.batches import RecordBatch, row_tuples
from repro.cube.records import Record, estimated_record_bytes
from repro.local.lifting import (
    count_rows,
    evaluate_bucket,
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
    JobShape,
    MapTask,
    account,
    default_partitioner,
)
from repro.mapreduce.sorter import sort_group_pairs
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


class _Execution(NamedTuple):
    """One run of the composite query: the reducers' output chunks, the
    work it counted, the local work counters, how many blocks it
    evaluated, and the map side's columnar accounting."""

    chunks: list
    shape: JobShape
    local_stats: LocalStats
    blocks: int
    columnar: Optional[ColumnarStats]


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
    """Evaluates workflows on a simulated cluster, one job per query:
    the query executes once, in this process, and the cluster prices
    what it counted (:func:`~repro.mapreduce.engine.account`).

    *tracer* (a :class:`repro.obs.Tracer`) records the evaluation's
    span tree -- optimize, map, shuffle, sort, evaluate, per-slot task
    placements.  *telemetry* (a
    :class:`repro.obs.telemetry.TelemetryRegistry`) receives per-task
    phase progress and row/byte counts, then each job's
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

    # -- one execution --------------------------------------------------------------

    def _make_partitioner(self, plan: QueryPlan):
        """Block -> reducer assignment per ExecutionConfig.partitioner."""
        if self.config.partitioner == "hash":
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

    def _execute(
        self,
        workflow: Workflow,
        plan: QueryPlan,
        input_file: DistributedFile,
        record_bytes: int,
        cancel: CancellationToken | None,
    ) -> "_Execution":
        """Run the composite query once and count its work.

        Map side: every DFS split is read from a live replica (one map
        task each), then the whole input is routed into blocks and
        split by reducer at once (:func:`scatter`) -- or, under early
        aggregation, combined split by split (:meth:`_map_early`).
        Reduce side: each reducer's bucket is one
        :func:`~repro.local.lifting.evaluate_bucket` call, the virtual
        clock's sort and scan sizes counted block by block in key
        order.  *cancel* is checked per split, per bucket and per
        component.
        """
        check = cancel.check if cancel is not None else None
        early = self.config.early_aggregation
        num_reducers = plan.num_reducers
        partitioner = self._make_partitioner(plan)
        # The batched map side needs a vectorized implementation of
        # every basic measure.
        columnar = ColumnarStats() if vectorized_supports(workflow) else None
        shape = JobShape(record_bytes, self.config.combined_sort)
        cluster = self.cluster
        failed = (
            cluster.machines_dead_at(0.0)
            if cluster.fault_plan is not None
            else cluster.failed_machines
        )

        map_start = time.perf_counter()
        splits = []
        for block in input_file.blocks:
            if check is not None:
                check()
            records, served_by = input_file.read_block(block, failed)
            splits.append((records, served_by != block.replicas[0]))
        batch = None
        if early:
            shares = self._map_early(
                plan, splits, shape, columnar, partitioner, check
            )
        else:
            records = [record for split, _remote in splits for record in split]
            if columnar is not None:
                batch = RecordBatch.from_records(workflow.schema, records)
                if batch is not None and batch.routable():
                    columnar.batch_tasks += len(splits)
                    columnar.batch_records += len(records)
                else:
                    # No batch at all, or typed dimension columns that
                    # the hierarchy level arrays cannot map.
                    batch = None
                    columnar.fallback_tasks += len(splits)
                    columnar.fallback_records += len(records)
            routed_shares, replicas = scatter(
                plan, records, batch, num_reducers, partitioner
            )
            shares = dict(routed_shares)
            ends = np.cumsum(
                [len(split) for split, _remote in splits], dtype=np.int64
            )
            routed = np.append(0, np.cumsum(replicas))[ends]
            for (split, remote), emitted in zip(
                splits, np.diff(routed, prepend=0).tolist()
            ):
                shape.maps.append(MapTask(
                    len(split), remote, emitted, emitted,
                    emitted * (KEY_BYTES + record_bytes),
                ))
        map_end = reduce_start = time.perf_counter()

        evaluators, filters = bucket_evaluators(
            [(component, subplan.scheme) for component, subplan in plan.subplans],
            tracer=self.tracer,
        )
        basic_tables = None
        if early:
            basics = [
                list(evaluator.workflow.basic_measures())
                for evaluator in evaluators
            ]

            def basic_tables(component_index, blocks):
                return _merge_partials(basics[component_index], blocks)

        value_width = _PARTIAL_STATE_BYTES if early else record_bytes
        chunks: list = []
        local_stats = LocalStats()
        blocks = 0
        for reducer in range(num_reducers):
            if check is not None:
                check()
            keys, sizes, rows, indices = _bucket(
                shares.get(reducer), batch, early
            )
            stats = LocalStats()
            done = evaluate_bucket(
                evaluators,
                filters,
                keys,
                sizes,
                rows,
                chunks,
                indices=indices,
                stats=stats,
                check=check,
                basic_tables=basic_tables,
            )
            local_stats.merge(stats)
            blocks += len(keys)
            sizes = np.asarray(sizes, dtype=np.int64)
            made = np.zeros(len(keys), dtype=np.int64)
            for _component, positions, produced in done:
                made[positions] = produced
            size = int(sizes.sum())
            shape.add_reducer(
                size,
                size * (KEY_BYTES + value_width),
                sizes,
                sizes * value_width,
                sizes if early else sizes + made,
            )
        shape.output_records = count_rows(chunks)
        shape.wall = (map_start, map_end, reduce_start, time.perf_counter())
        return _Execution(chunks, shape, local_stats, blocks, columnar)

    def _map_early(
        self, plan, splits, shape, columnar, partitioner, check
    ) -> dict[int, list]:
        """Early aggregation's map side: each split combines its share
        of every block into partial accumulator states, one map task
        per split -- combine counts are per task by definition.

        A routable split routes as one batch and produces the states
        with grouped reduceat aggregation, falling back to the scalar
        combiner for components it cannot compute bit-identically;
        any other split runs the per-record router and the scalar
        combiner.  Returns each reducer's ``(block key, state)`` pairs
        in arrival order, by reducer.
        """
        schema = plan.subplans[0][0].schema
        routers = [
            subplan.scheme.make_batch_router() for _wf, subplan in plan.subplans
        ]
        components = [component for component, _plan in plan.subplans]
        combiner = _scalar_combiner(plan)
        keys_of = block_keys_of(plan)
        shares: dict[int, list] = defaultdict(list)
        for records, remote in splits:
            if check is not None:
                check()
            batch = (
                RecordBatch.from_records(schema, records)
                if columnar is not None
                else None
            )
            if batch is not None and batch.routable():
                columnar.batch_tasks += 1
                columnar.batch_records += len(batch)
                pairs, emitted = _batch_partials(
                    routers, components, combiner, batch, records, columnar
                )
            else:
                if columnar is not None:
                    columnar.fallback_tasks += 1
                    columnar.fallback_records += len(records)
                mapped = [
                    (key, record) for record in records
                    for key in keys_of(record)
                ]
                emitted = len(mapped)
                pairs = [
                    pair
                    for key, values in sort_group_pairs(mapped)
                    for pair in combiner(key, values)
                ]
            for pair in pairs:
                shares[partitioner(pair[0], plan.num_reducers)].append(pair)
            shape.maps.append(MapTask(
                len(records), remote, emitted, len(pairs),
                len(pairs) * (KEY_BYTES + _PARTIAL_STATE_BYTES),
                emitted, emitted * (KEY_BYTES + shape.record_bytes),
            ))
        return shares

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
        planning, per map split, and per reduce task and component, and
        a tripped token unwinds the run with
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
            if cancel is not None:
                cancel.check()

            record_bytes = estimated_record_bytes(workflow.schema)
            logger.info(
                "evaluating %d measures over %d records: %s",
                len(workflow),
                input_file.num_records,
                query_plan.describe(),
            )
            run = self._execute(
                workflow, query_plan, input_file, record_bytes, cancel
            )
            report = account(
                run.shape,
                self.cluster,
                name="composite-query",
                tracer=self.tracer,
                telemetry=self.telemetry,
            )
            logger.info("job finished: %s", report.summary())

            result = union_outputs(workflow, run.chunks)
            calibration = CalibrationReport.from_run(
                query_plan,
                report,
                record_bytes=record_bytes,
                key_bytes=KEY_BYTES,
                early_aggregation=self.config.early_aggregation,
                actual_blocks=run.blocks,
            )
            root.set_sim(0.0, report.response_time)
            root.set(rows=result.total_rows())
            root.set(calibration_error=calibration.max_load_error)
            if run.columnar is not None:
                root.set(columnar=run.columnar.to_dict())
        if self.telemetry.enabled:
            self._record_job(query_plan, report, calibration, run.columnar)
        return ParallelResult(
            result=result,
            plan=query_plan,
            job=report,
            local_stats=run.local_stats,
            columnar=run.columnar,
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


def route_block_rows(routers, batch: RecordBatch) -> BlockRows:
    """Every component's blocks of one routable batch, as arrays.

    Each router returns its component's blocks in key order, and the
    component index leads every key, so the concatenation is in key
    order too.
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
    )


def block_keys_of(plan: QueryPlan) -> Callable[[Record], list]:
    """The per-record router: a record's full block keys (component
    index first), every component's in turn."""
    routers = [
        ((index,), subplan.scheme.make_mapper())
        for index, (_wf, subplan) in enumerate(plan.subplans)
    ]

    def keys_of(record: Record) -> list:
        return [
            lead + block_key
            for lead, blocks_of in routers
            for block_key in blocks_of(record)
        ]

    return keys_of


def scatter(
    plan: QueryPlan,
    records: Sequence[Record],
    batch: Optional[RecordBatch],
    num_reducers: int,
    partitioner: Callable = default_partitioner,
) -> tuple[list, np.ndarray]:
    """Route the query's input into blocks once and split the blocks by
    reducer: the map side of both backends.

    With a routable *batch* of *records*, every component's vectorized
    router runs over it (:func:`route_block_rows`) and the blocks split
    by reducer at once (:meth:`BlockRows.split`): a reducer's share is
    a :class:`BlockRows` of row indices into *batch*.  Without one,
    each record goes through the per-record router
    (:func:`block_keys_of`) and a reducer's share is its ``(block key,
    records)`` lists.  Either way a share's blocks are in key order and
    a block's rows in input order.

    Returns ``(shares, replicas)``: ``[(reducer, share)]`` for every
    reducer that gets a block, ascending, and how many blocks each
    record went to.
    """
    if batch is not None:
        blocks = route_block_rows(
            [
                subplan.scheme.make_batch_router()
                for _component, subplan in plan.subplans
            ],
            batch,
        )
        return (
            blocks.split(partitioner, num_reducers),
            np.bincount(blocks.rows, minlength=len(batch)),
        )
    keys_of = block_keys_of(plan)
    blocks: dict[tuple, list] = defaultdict(list)
    replicas = []
    for record in records:
        keys = keys_of(record)
        replicas.append(len(keys))
        for key in keys:
            blocks[key].append(record)
    shares: dict[int, list] = defaultdict(list)
    for key in sorted(blocks):
        shares[partitioner(key, num_reducers)].append((key, blocks[key]))
    return sorted(shares.items()), np.array(replicas, dtype=np.int64)


def _bucket(share, batch: Optional[RecordBatch], early: bool) -> tuple:
    """One reducer's share as :func:`~repro.local.lifting.evaluate_bucket`
    takes it: ``(keys, sizes, rows, indices)``."""
    if share is None:
        return [], [], [], None
    if early:
        groups = sort_group_pairs(share)
    elif batch is not None:
        return share.keys, share.counts, batch, share.rows
    else:
        groups = share
    return (
        [key for key, _values in groups],
        [len(values) for _key, values in groups],
        [values for _key, values in groups],
        None,
    )


def _scalar_combiner(plan: QueryPlan):
    """Early aggregation, per record: a block's records -> its
    per-region partial states."""
    basics_by_component = [
        [
            (
                local_index,
                measure,
                measure.granularity.coordinate_mapper(),
                component.schema.field_index(measure.field),
            )
            for local_index, measure in enumerate(component.basic_measures())
        ]
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
                states[slot] = measure.aggregate.add(acc, record[field_index])
        for (local_index, coords), state in states.items():
            yield (block_key, (_PARTIAL, local_index, coords, state))

    return combiner


def _batch_partials(routers, components, combiner, batch, records,
                    stats: ColumnarStats) -> tuple[list, int]:
    """One routable split's partial states: ``(pairs, emitted)``.

    Per component, grouped reduceat aggregation over the batch
    (:func:`~repro.local.vectorized.batched_partial_states`), or the
    scalar *combiner* over per-block record lists where that cannot be
    bit-identical (unsupported aggregate, overflow risk).
    """
    pairs: list = []
    emitted = 0
    for index, router in enumerate(routers):
        raw_keys, raw_rows, varying = router(batch, (index,), raw=True)
        emitted += len(raw_rows)
        if not len(raw_rows):
            continue
        fused = batched_partial_states(
            components[index], batch.matrix, raw_keys, raw_rows, varying
        )
        if fused is None:
            full_keys, flat_rows, counts, _matrix = router(
                batch, (index,), flat=True
            )
            stats.scalar_groups += len(full_keys)
            offsets = np.append(0, np.cumsum(counts)).tolist()
            row_list = flat_rows.tolist()
            for block_id, full_key in enumerate(full_keys):
                members = [
                    records[i]
                    for i in row_list[offsets[block_id]:offsets[block_id + 1]]
                ]
                pairs.extend(combiner(full_key, members))
            continue
        full_keys, partials = fused
        stats.vector_groups += len(full_keys)
        # Pure C-level assembly: zip() builds the value and pair tuples,
        # map() resolves block keys -- no bytecode runs per partial.
        for local_index, ids, regions, states in partials:
            pairs.extend(
                zip(
                    map(full_keys.__getitem__, ids),
                    zip(repeat(_PARTIAL), repeat(local_index), regions, states),
                )
            )
    return pairs, emitted
