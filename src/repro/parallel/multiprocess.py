"""A process-parallel local backend with real fault tolerance.

The simulated cluster measures *what the paper measured*; this backend
demonstrates the paper's closing remark that the algorithm "can be
implemented in any OLAP system which supports scatter-and-gather": the
same plan -- feasible key, clustering factor, one local sort/scan per
bucket, owned-region filtering -- executed across real OS processes
with :mod:`concurrent.futures`.

Each gather task carries one reducer bucket of blocks.  A worker
evaluates all of a component's blocks in the bucket with one call of a
lifted evaluator (:mod:`repro.local.lifting`): every record is tagged
with its block's ordinal in the bucket, which leads the sort key and is
a coordinate of every region, so the paper's composite-key sort
(Section III-D) keeps the blocks apart.

Unlike a plain ``pool.map``, the gather side survives real failures the
way a MapReduce master does:

* a task attempt that raises is retried with exponential backoff and
  deterministic jitter, up to :class:`~repro.faults.RetryPolicy.
  max_attempts`;
* an attempt that outlives ``straggler_timeout`` earns a speculative
  duplicate; the first result wins and the loser is ignored, so the
  final union stays duplicate-free (owned-region filtering already
  guarantees block-disjoint outputs);
* a worker process dying (``BrokenProcessPool``) rebuilds the pool and
  re-runs only the unfinished tasks;
* an attempt exceeding ``task_timeout`` is abandoned and re-dispatched;
* when a task exhausts its budget the evaluator degrades gracefully:
  it falls back to :func:`repro.local.evaluate_centralized`, so the
  answer never changes -- only the speedup is lost.

Chaos is injected through the same :class:`~repro.faults.FaultPlan`
the simulator uses (see :func:`repro.faults.apply_chaos`): seeded
worker kills, injected failures, and stragglers exercise every one of
those recovery paths deterministically.

Workers rebuild the workflow from its serialized form (see
:mod:`repro.io`), so measures must use registry aggregates and *named*
combine expressions; anonymous lambdas cannot cross process boundaries.
Parameterized aggregates (quantiles, sketches) re-register themselves in
each worker through the factory list passed at pool start.

The result is bit-identical to :func:`repro.local.evaluate_centralized`
-- asserted by the test suite, including under chaos -- because the plan
machinery is shared with the simulated executor; only the transport (and
what can go wrong with it) differs.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_module
import time
from collections import defaultdict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.cube.batches import (
    RecordBatch,
    estimated_pickle_bytes,
    row_tuples,
)
from repro.cube.records import Record, Schema
from repro.faults.inject import apply_chaos
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.io.serialize import workflow_from_dict, workflow_to_dict
from repro.local.lifting import evaluate_bucket, vectorized_bucket_evaluator
from repro.local.measure_table import ResultSet
from repro.local.sortscan import evaluate_centralized
from repro.local.vectorized import vectorized_supports
from repro.mapreduce.engine import stable_hash
from repro.obs.telemetry import NULL_TELEMETRY, sample_resources
from repro.obs.tracectx import SpanCollector, TraceContext, wire_span
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.query.functions import Expression
from repro.query.workflow import Workflow, connected_components
from repro.parallel.cancel import CancellationToken
from repro.parallel.executor import union_outputs
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    shm_available,
)

logger = logging.getLogger(__name__)

#: How often the gather loop wakes to check retries/stragglers (seconds).
_POLL_SECONDS = 0.02

#: Report fields recorded once per run as ``mp.<field>`` counters.
_RECOVERY_COUNTERS = (
    "attempts",
    "retries",
    "timeouts",
    "pool_rebuilds",
    "speculative_launched",
    "speculative_wins",
)

# Worker-process state, set up once per pool by _init_worker.
_WORKER: dict = {}


def _init_worker(
    workflow_data: dict,
    schema: Schema,
    scheme_specs: list,
    expressions: Optional[Mapping[str, Expression]],
    function_factories: Sequence[tuple],
    telemetry_queue=None,
    trace_ctx: Optional[dict] = None,
) -> None:
    """Rebuild the workflow, evaluators and filters inside a worker."""
    for factory_path, args in function_factories:
        module_name, _, attr = factory_path.rpartition(".")
        module = __import__(module_name, fromlist=[attr])
        getattr(module, attr)(*args)

    workflow = workflow_from_dict(workflow_data, schema, expressions)
    from repro.distribution.clustering import BlockScheme
    from repro.distribution.keys import DistributionKey, KeyComponent

    # Serialization may reorder measures (topological emit), so the
    # rebuilt components can come back in a different order than the
    # driver enumerated them; match by measure-name set, never by
    # position -- block keys carry the DRIVER's component indices.
    by_names = {
        frozenset(component.names): component
        for component in connected_components(workflow)
    }
    evaluators = []
    filters = []
    for names, key_spec, factors in scheme_specs:
        component = by_names[frozenset(names)]
        key = DistributionKey(
            schema, tuple(KeyComponent(*spec) for spec in key_spec)
        )
        evaluators.append(vectorized_bucket_evaluator(component))
        # Without an annotation every block owns all it computes.
        if key.is_overlapping:
            scheme = BlockScheme(key, dict(factors))
            filters.append(
                {
                    measure.name: scheme.make_result_filter(
                        measure.granularity
                    )
                    for measure in component.measures
                }
            )
        else:
            filters.append(None)
    _WORKER["schema"] = schema
    _WORKER["evaluators"] = evaluators
    _WORKER["filters"] = filters
    # Telemetry channel: cumulative totals since worker start, flushed
    # with a monotone sequence number after every finished task.
    _WORKER["telemetry_queue"] = telemetry_queue
    _WORKER["telemetry_seq"] = 0
    _WORKER["telemetry_counters"] = {"tasks": 0, "rows": 0, "blocks": 0}
    # Trace propagation: the driver's execution-span context, received
    # on the wire.  Task-attempt spans parent under it and ride the
    # telemetry channel inside a bounded ring (the worker-side flight
    # recorder) as (seq, span) pairs, so redelivery dedups cleanly.
    _WORKER["trace_ctx"] = trace_ctx
    _WORKER["span_ring"] = deque(maxlen=128)
    _WORKER["trace_seq"] = 0


def _flush_worker_telemetry() -> None:
    """Push this worker's cumulative totals to the driver, best-effort.

    Totals (never increments) ride with a per-worker sequence number,
    so the driver's merge is idempotent: a flush delivered twice or a
    worker killed before its next flush can neither double-count nor
    corrupt what was already acknowledged -- at worst the final window
    of a dead worker goes unreported.  Queue trouble (driver gone,
    shutdown races) is swallowed: telemetry must never fail a task.
    """
    channel = _WORKER.get("telemetry_queue")
    if channel is None:
        return
    _WORKER["telemetry_seq"] += 1
    delta = {
        "worker": f"w{os.getpid()}",
        "seq": _WORKER["telemetry_seq"],
        "counters": dict(_WORKER["telemetry_counters"]),
        "resources": sample_resources().to_dict(),
    }
    ring = _WORKER.get("span_ring")
    if ring:
        # The whole recent window every flush: at-least-once delivery,
        # deduplicated driver-side by per-span sequence number.
        delta["spans"] = list(ring)
    try:
        channel.put_nowait(delta)
    except Exception:
        pass


def _record_task_span(task: int, attempt: int, started: float,
                      **attributes) -> None:
    """Ring one finished (or failed) task attempt as a context span."""
    ctx = _WORKER.get("trace_ctx")
    ring = _WORKER.get("span_ring")
    if ctx is None or ring is None:
        return
    _WORKER["trace_seq"] += 1
    span = wire_span(
        ctx,
        "mp-task",
        started,
        time.time(),
        process=f"w{os.getpid()}",
        task=task,
        attempt=attempt,
        **attributes,
    )
    ring.append((_WORKER["trace_seq"], span))


def _reduce_bucket(bucket) -> list:
    """Evaluate one reducer bucket; runs inside a worker process.

    A record-list bucket's blocks are evaluated per component in one
    call of the component's lifted scalar evaluator
    (:func:`~repro.local.lifting.evaluate_bucket`).
    """
    if isinstance(bucket, ShmBucket):
        return _reduce_shm_bucket(bucket)
    rows: list = []
    evaluate_bucket(
        _WORKER["evaluators"],
        _WORKER["filters"],
        [block_key for block_key, _records in bucket],
        [len(records) for _block_key, records in bucket],
        [records for _block_key, records in bucket],
        rows,
    )
    return rows


def _evaluate_shm_view(view) -> list:
    """Evaluate an attached shm bucket, one call per component.

    The bucket's payload rows, fancy-indexed out of the mapped batch,
    go to each component's lifted vectorized evaluator in one batch
    (:func:`~repro.local.lifting.evaluate_bucket`), which falls back to
    the scalar path internally whenever it cannot produce bit-identical
    results.  Separated from :func:`_reduce_shm_bucket` so that when
    this frame returns, every array view into the shared mapping is
    dead and the caller's ``close()`` can actually unmap the segment.
    """
    keys, counts, indices = view.block_arrays()
    rows: list = []
    evaluate_bucket(
        _WORKER["evaluators"],
        _WORKER["filters"],
        row_tuples(keys),
        counts,
        view.batch(_WORKER["schema"]),
        rows,
        indices=indices,
    )
    return rows


def _reduce_shm_bucket(bucket: ShmBucket) -> list:
    """Evaluate one shm bucket: attach, view, evaluate, unmap.

    The segment is driver-owned; this side only maps it.
    """
    view = bucket.attach()
    try:
        return _evaluate_shm_view(view)
    finally:
        view.close()


def _scheme_specs(plan) -> list:
    """Each component's measure names, key and clustering factors, in
    the picklable form :func:`_init_worker` rebuilds its schemes from."""
    return [
        (
            tuple(component.names),
            tuple(
                (c.level, c.low, c.high)
                for c in subplan.scheme.key.components
            ),
            tuple(sorted(subplan.scheme.clustering_factors.items())),
        )
        for component, subplan in plan.subplans
    ]


def _bucket_block_count(bucket) -> int:
    """How many blocks one gather bucket carries (any transport)."""
    if isinstance(bucket, ShmBucket):
        return bucket.counts[1]
    return len(bucket)


def _run_task(
    task: int,
    attempt: int,
    bucket: list,
    plan: Optional[FaultPlan],
) -> tuple[int, list]:
    """One task attempt inside a worker: inject chaos, then evaluate."""
    tracing = _WORKER.get("trace_ctx") is not None
    started = time.time() if tracing else 0.0
    try:
        if plan is not None:
            apply_chaos(plan, task, attempt)
        rows = _reduce_bucket(bucket)
    except BaseException as exc:
        # A failed attempt still leaves a span behind -- best effort:
        # the flush may not land before the process dies, but a chaos
        # *exception* (as opposed to a kill) usually gets through.
        if tracing:
            _record_task_span(task, attempt, started, error=repr(exc))
            _flush_worker_telemetry()
        raise
    if tracing:
        _record_task_span(task, attempt, started, rows=len(rows))
    counters = _WORKER.get("telemetry_counters")
    if _WORKER.get("telemetry_queue") is not None:
        if counters is not None:
            counters["tasks"] += 1
            counters["rows"] += len(rows)
            counters["blocks"] += _bucket_block_count(bucket)
        _flush_worker_telemetry()
    return task, rows


@dataclass
class MultiprocessReport:
    """What the process-parallel run actually did, recovery included."""

    processes: int
    partitions: int
    blocks: int
    replicated_records: int
    transport: str = "records"
    shipped_bytes: int = 0
    #: Bytes written into shared-memory segments (0 for record lists);
    #: the descriptors that still cross the pipe count as
    #: ``shipped_bytes``.
    shm_bytes: int = 0
    #: Driver wall seconds spent materializing the transport (pickling
    #: buckets, or writing shm segments).
    transport_seconds: float = 0.0
    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    injected_failures: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    degraded: bool = False
    #: Wall seconds of retry backoff the driver sat out -- the latency
    #: ledger's ``retry_overhead`` phase.
    retry_wall_seconds: float = 0.0
    attempts_per_task: dict = field(default_factory=dict)
    #: Per-worker telemetry sections (cumulative counters + final
    #: resource odometer), merged from the telemetry channel; empty
    #: when telemetry was off.  Shape matches
    #: :meth:`repro.obs.telemetry.TelemetryRegistry.worker_totals`.
    workers: dict = field(default_factory=dict)

    @property
    def transport_bytes(self) -> int:
        """Total bytes the scatter materialized (pipe + shm)."""
        return self.shipped_bytes + self.shm_bytes

    @property
    def transport_bytes_per_second(self) -> float:
        """Scatter throughput: transport bytes over driver wall time."""
        if self.transport_seconds <= 0:
            return 0.0
        return self.transport_bytes / self.transport_seconds

    def fault_summary(self) -> dict:
        """Recovery accounting in the shape run manifests record."""
        return {
            "tasks": self.tasks,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": self.injected_failures,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "speculative_launched": self.speculative_launched,
            "speculative_wins": self.speculative_wins,
            "degraded": self.degraded,
            "attempts_per_task": {
                str(task): count
                for task, count in sorted(self.attempts_per_task.items())
            },
        }


@dataclass
class _TaskState:
    """Driver-side bookkeeping for one gather task."""

    bucket: list
    failures: int = 0
    next_attempt: int = 0
    inflight: int = 0
    done: bool = False
    rows: Optional[list] = None


class MultiprocessEvaluator:
    """Evaluates workflows across OS processes (no simulation).

    Args:
        processes: Worker pool size; defaults to the CPU count.
        optimizer: Plan-search configuration (shared with the simulated
            executor -- the plan is identical, only execution differs).
        expressions: Named combine expressions needed to rebuild the
            workflow in workers (beyond the built-ins).
        function_factories: For parameterized registry aggregates
            (quantiles, sketches), ``("module.factory", (args,))`` pairs
            re-run in every worker so lookups by name succeed there.
        retry_policy: Retry/backoff/speculation knobs (wall-clock
            semantics); defaults to :class:`~repro.faults.RetryPolicy`.
        fault_plan: Optional chaos to inject into worker attempts --
            seeded kills, failures, stragglers (see
            :func:`repro.faults.apply_chaos`).
        tracer: Optional :class:`repro.obs.Tracer`; receives the
            ``mp-evaluate`` span, its recovery children (``mp-retry``,
            ``mp-rebuild-pool``, ``mp-degrade``) and every worker's
            ``mp-task`` attempt spans, shipped over the telemetry
            channel, all on one wall clock.
        telemetry: Optional
            :class:`repro.obs.telemetry.TelemetryRegistry`; turns on
            the worker->driver channel -- workers flush cumulative
            counters and resource samples after every task, the gather
            loop merges them live, and the report/manifest gain a
            per-worker section.  The registry also receives the
            transport gauges (``mp.shipped_bytes``, ``mp.shm_bytes``,
            ``mp.transport_bytes_per_s``), live ``mp.failures``, and
            once per run the recovery counters (``mp.attempts``,
            ``mp.retries``, ...) with the ``mp.degraded`` and
            ``mp.columnar_transport`` gauges.  Defaults to the no-op
            :data:`~repro.obs.telemetry.NULL_TELEMETRY`.

    Buckets reach workers through shared memory when the workflow has
    vectorized aggregate support, the records form a routable batch and
    the platform has POSIX shared memory; otherwise as pickled record
    lists.  :attr:`MultiprocessReport.transport` says which.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        optimizer: OptimizerConfig | None = None,
        expressions: Optional[Mapping[str, Expression]] = None,
        function_factories: Sequence[tuple] = (),
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        telemetry=None,
    ):
        self.processes = processes or os.cpu_count() or 2
        self.optimizer = Optimizer(optimizer or OptimizerConfig())
        self.expressions = expressions
        self.function_factories = tuple(function_factories)
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )

    def evaluate(
        self,
        workflow: Workflow,
        records: Sequence[Record],
        num_partitions: Optional[int] = None,
        cancel: CancellationToken | None = None,
        trace: Optional[TraceContext] = None,
    ) -> tuple[ResultSet, MultiprocessReport]:
        """Run the one-round plan over *records* with real processes.

        *cancel* (a :class:`repro.parallel.cancel.CancellationToken`)
        is checked before the scatter and on every poll of the gather
        loop; a tripped token abandons the outstanding attempts (worker
        processes cannot be interrupted mid-task, so their results are
        simply ignored) and raises
        :class:`~repro.parallel.cancel.DeadlineExceededError`.

        *trace* (a :class:`repro.obs.tracectx.TraceContext`) is the
        optional parent of the run's ``mp-evaluate`` span in
        :attr:`tracer`; without it the span nests under the tracer's
        open span.  Workers tag every task attempt with the same trace
        id, so the whole run is one tree.
        """
        if cancel is not None:
            cancel.check()
        records = list(records)
        partitions = num_partitions or self.processes * 4
        sample = None
        if self.optimizer.config.use_sampling:
            from repro.optimizer.skew import sample_records

            sample = sample_records(
                records,
                self.optimizer.config.sample_size,
                self.optimizer.config.sample_seed,
            )
        plan = self.optimizer.plan_query(
            workflow, len(records), num_reducers=partitions, records=sample
        )
        logger.info(
            "dispatching %d records over %d processes: %s",
            len(records),
            self.processes,
            plan.describe(),
        )

        # Scatter: replicate records into blocks (driver side), then
        # group blocks into per-partition buckets by stable hash.
        batch = None
        if vectorized_supports(workflow) and shm_available():
            batch = RecordBatch.from_records(workflow.schema, records)
            if batch is not None and not batch.routable():
                # Typed dimension columns (strings/nulls) cannot be
                # mapped through hierarchy level arrays; ship record
                # lists instead.
                batch = None
        registry = SegmentRegistry() if batch is not None else None
        try:
            return self._evaluate_scattered(
                workflow, records, batch, plan, partitions, registry,
                cancel, trace,
            )
        finally:
            if registry is not None:
                registry.unlink_all()

    def _evaluate_scattered(
        self,
        workflow: Workflow,
        records: list,
        batch: Optional[RecordBatch],
        plan,
        partitions: int,
        registry: Optional[SegmentRegistry],
        cancel: CancellationToken | None,
        trace: Optional[TraceContext] = None,
    ) -> tuple[ResultSet, MultiprocessReport]:
        """Scatter into buckets, gather resiliently, union the answer.

        *batch* and *registry* come together and select shared-memory
        transport; the caller guarantees ``unlink_all`` runs whatever
        happens here.  Without them the records ship as pickled lists.
        """
        if batch is not None:
            buckets, num_blocks, replicated, transport_seconds = (
                self._scatter_columnar(batch, plan, partitions, registry)
            )
            transport = "shm"
        else:
            buckets, num_blocks, replicated = self._scatter_records(
                records, plan, partitions
            )
            transport = "records"
            transport_seconds = None

        # Telemetry channel: a managed queue is picklable into worker
        # initargs (a plain multiprocessing.Queue is not); the manager
        # process only exists while telemetry or tracing is on (worker
        # spans ride the same channel as counters).
        tracing = self.tracer.enabled
        manager = None
        telemetry_queue = None
        if self.telemetry.enabled or tracing:
            manager = multiprocessing.Manager()
            telemetry_queue = manager.Queue()
        collector = SpanCollector(self.tracer.ingest) if tracing else None

        # Gather: one task per non-empty bucket, with retries,
        # speculation, pool rebuilds and a centralized fallback.
        work = [bucket for bucket in buckets if bucket]
        measure_started = time.perf_counter()
        shipped_bytes = sum(
            estimated_pickle_bytes(bucket) for bucket in work
        )
        if transport_seconds is None:
            # Record-list transport: serializing the buckets IS the
            # materialization cost, so the measurement doubles as it.
            transport_seconds = time.perf_counter() - measure_started
        report = MultiprocessReport(
            processes=self.processes,
            partitions=partitions,
            blocks=num_blocks,
            replicated_records=replicated,
            transport=transport,
            shipped_bytes=shipped_bytes,
            shm_bytes=registry.created_bytes if registry else 0,
            transport_seconds=transport_seconds,
            tasks=len(work),
        )
        self.telemetry.phase("mp-tasks", 0, len(work))
        self.telemetry.set_gauge("mp.shipped_bytes", report.shipped_bytes)
        self.telemetry.set_gauge("mp.shm_bytes", report.shm_bytes)
        self.telemetry.set_gauge(
            "mp.transport_bytes_per_s", report.transport_bytes_per_second
        )

        def release_bucket(bucket) -> None:
            # Eager reclamation: the moment a task's result is in, its
            # segment can go -- Linux keeps the memory alive for any
            # straggling duplicate that already mapped it.
            if registry is not None and isinstance(bucket, ShmBucket):
                registry.release(bucket.segment)

        try:
            # Worker task spans are children of this span, so they
            # attach however the gather ends below.
            with self.tracer.span(
                "mp-evaluate", parent=trace,
                tasks=len(work), processes=self.processes,
            ) as exec_span:
                init_args = (
                    workflow_to_dict(workflow, expressions=self.expressions),
                    workflow.schema,
                    _scheme_specs(plan),
                    self.expressions,
                    self.function_factories,
                    telemetry_queue,
                    exec_span.context().to_wire() if tracing else None,
                )
                try:
                    row_lists = self._gather_resilient(
                        work, init_args, report,
                        telemetry_queue=telemetry_queue,
                        cancel=cancel,
                        release=release_bucket,
                        exec_span=exec_span,
                        collector=collector,
                    )
                    self._drain_telemetry(telemetry_queue, collector)
                    report.workers = self.telemetry.worker_totals()
                    if row_lists is None:
                        # Graceful degradation: some task exhausted its
                        # retry budget.  The centralized oracle computes
                        # the same answer -- we lose the speedup, never
                        # the result.
                        logger.warning(
                            "multiprocess gather degraded after %d "
                            "retries; falling back to centralized "
                            "evaluation",
                            report.retries,
                        )
                        report.degraded = True
                        with self.tracer.span(
                            "mp-degrade", retries=report.retries
                        ):
                            result = evaluate_centralized(workflow, records)
                finally:
                    exec_span.set(
                        retries=report.retries, degraded=report.degraded
                    )
        finally:
            if manager is not None:
                manager.shutdown()

        if row_lists is not None:
            result = union_outputs(
                workflow, (row for rows in row_lists for row in rows)
            )
        telemetry = self.telemetry
        if telemetry.enabled:
            for name in _RECOVERY_COUNTERS:
                telemetry.inc(f"mp.{name}", getattr(report, name))
            telemetry.set_gauge("mp.degraded", float(report.degraded))
            telemetry.set_gauge(
                "mp.columnar_transport", float(report.transport == "shm")
            )
        return result, report

    # -- scatter -------------------------------------------------------------------

    @staticmethod
    def _scatter_records(
        records: list, plan, partitions: int
    ) -> tuple[list, int, int]:
        """Replicate records into blocks and group blocks into buckets.

        Returns ``(buckets, num_blocks, replicated_records)``: one list
        of ``(block_key, records)`` entries per partition, assigned by
        stable hash of the block key.
        """
        blocks: dict[tuple, list] = defaultdict(list)
        for index, (_component, subplan) in enumerate(plan.subplans):
            mapper = subplan.scheme.make_mapper()
            for record in records:
                for block_key in mapper(record):
                    blocks[(index,) + block_key].append(record)
        buckets: list[list] = [[] for _ in range(partitions)]
        replicated = 0
        for block_key, block_records in blocks.items():
            replicated += len(block_records)
            buckets[stable_hash(block_key) % partitions].append(
                (block_key, block_records)
            )
        return buckets, len(blocks), replicated

    @staticmethod
    def _scatter_columnar(
        batch: RecordBatch,
        plan,
        partitions: int,
        registry: SegmentRegistry,
    ) -> tuple[list, int, int, float]:
        """Route one batch into per-partition shared-memory buckets.

        Returns ``(buckets, num_blocks, replicated_records,
        materialize_seconds)``.  Each non-empty bucket holds every
        record it needs exactly once (its blocks overlap under
        annotated keys) with per-block row indices into that payload,
        written once into a segment of *registry*; only the
        :class:`ShmBucket` descriptor crosses the pipe.
        ``materialize_seconds`` is the wall time spent writing the
        segments, excluding the routing.
        """
        block_rows: dict[tuple, np.ndarray] = {}
        for index, (_component, subplan) in enumerate(plan.subplans):
            router = subplan.scheme.make_batch_router()
            for block_key, rows in router(batch, (index,)):
                block_rows[block_key] = rows

        grouped: list[list] = [[] for _ in range(partitions)]
        replicated = 0
        for block_key, rows in block_rows.items():
            replicated += len(rows)
            grouped[stable_hash(block_key) % partitions].append(
                (block_key, rows)
            )

        buckets: list = []
        materialize_seconds = 0.0
        for bucket_blocks in grouped:
            if not bucket_blocks:
                buckets.append([])
                continue
            all_rows = np.concatenate(
                [rows for _key, rows in bucket_blocks]
            )
            unique_rows = np.unique(all_rows)
            row_maps = np.searchsorted(unique_rows, all_rows)
            started = time.perf_counter()
            buckets.append(
                ShmBucket.build(
                    registry, batch.take(unique_rows), bucket_blocks,
                    row_maps,
                )
            )
            materialize_seconds += time.perf_counter() - started
        return buckets, len(block_rows), replicated, materialize_seconds

    # -- resilient gather loop ---------------------------------------------------

    def _gather_resilient(
        self,
        work: Sequence[list],
        init_args: tuple,
        report: MultiprocessReport,
        telemetry_queue=None,
        cancel: CancellationToken | None = None,
        release=None,
        exec_span=None,
        collector: Optional[SpanCollector] = None,
    ) -> Optional[list[list]]:
        """Run every bucket to completion; ``None`` means degrade.

        The loop mirrors a MapReduce master: dispatch, watch, retry
        with backoff, speculate on stragglers, rebuild the pool when a
        worker dies, and give up (gracefully) only when a task's whole
        budget is spent.  Retry backoffs are recorded as ``mp-retry``
        children of *exec_span*; worker spans drained from the channel
        go through *collector*.
        """
        if not work:
            return []
        policy = self.retry_policy
        plan = self.fault_plan
        seed = plan.seed if plan is not None else 0
        tasks = {index: _TaskState(bucket) for index, bucket in
                 enumerate(work)}
        pool = self._new_pool(init_args)
        futures: dict = {}  # future -> (task, attempt, submitted_at, backup)
        retry_at: dict[int, float] = {}  # task -> wall deadline
        unfinished = set(tasks)

        def submit(task: int, *, backup: bool = False) -> None:
            state = tasks[task]
            attempt = state.next_attempt
            state.next_attempt += 1
            state.inflight += 1
            report.attempts += 1
            report.attempts_per_task[task] = (
                report.attempts_per_task.get(task, 0) + 1
            )
            future = pool.submit(
                _run_task, task, attempt, state.bucket, plan
            )
            futures[future] = (task, attempt, time.monotonic(), backup)

        def register_failure(task: int, why: str) -> bool:
            """Count a failure; ``False`` means the budget is spent."""
            state = tasks[task]
            state.failures += 1
            if state.failures >= policy.max_attempts:
                logger.error(
                    "task %d exhausted %d attempts (last: %s)",
                    task, state.failures, why,
                )
                return False
            delay = policy.backoff(
                state.failures, seed, salt=f"mp:{task}"
            )
            report.retries += 1
            report.retry_wall_seconds += delay
            retry_at[task] = time.monotonic() + delay
            # The span's width is the backoff it costs.
            now = self.tracer.now()
            self.tracer.record(
                exec_span, "mp-retry", now, now + delay,
                task=task, failures=state.failures,
                backoff=delay, error=why,
            )
            logger.warning(
                "task %d failed (%s); retry %d/%d in %.3fs",
                task, why, state.failures, policy.max_attempts - 1, delay,
            )
            return True

        def rebuild_pool() -> None:
            nonlocal pool
            report.pool_rebuilds += 1
            with self.tracer.span(
                "mp-rebuild-pool", rebuilds=report.pool_rebuilds
            ):
                pool.shutdown(wait=False, cancel_futures=True)
                pool = self._new_pool(init_args)
            logger.warning(
                "worker pool broken; rebuilt (%d unfinished tasks)",
                len(unfinished),
            )

        try:
            for task in sorted(unfinished):
                submit(task)
            while unfinished:
                if cancel is not None:
                    # A tripped deadline abandons the gather: the
                    # finally clause tears the pool down without
                    # waiting, so in-flight worker attempts are merely
                    # orphaned, never joined.
                    cancel.check()
                now = time.monotonic()
                for task in [
                    task for task, when in retry_at.items() if when <= now
                ]:
                    del retry_at[task]
                    if task in unfinished:
                        submit(task)
                if not futures:
                    if retry_at:
                        time.sleep(
                            max(
                                _POLL_SECONDS,
                                min(retry_at.values()) - time.monotonic(),
                            )
                        )
                        continue
                    # Nothing running and nothing scheduled: every
                    # remaining task is out of budget.
                    return None
                done, _pending = wait(
                    list(futures),
                    timeout=_POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                self._drain_telemetry(telemetry_queue, collector)
                broken = False
                for future in done:
                    task, attempt, submitted, backup = futures.pop(future)
                    state = tasks[task]
                    state.inflight -= 1
                    if state.done:
                        continue  # late loser of a speculative race
                    try:
                        _task, rows = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # injected or genuine
                        report.injected_failures += 1
                        self.telemetry.inc("mp.failures")
                        if state.inflight > 0:
                            continue  # a duplicate is still running
                        if not register_failure(task, repr(exc)):
                            return None
                    else:
                        state.done = True
                        state.rows = rows
                        unfinished.discard(task)
                        retry_at.pop(task, None)
                        if release is not None:
                            release(state.bucket)
                        if backup:
                            report.speculative_wins += 1
                        self.telemetry.mark("mp.rows", len(rows))
                        self.telemetry.observe(
                            "mp.task_seconds",
                            time.monotonic() - submitted,
                        )
                        self.telemetry.phase(
                            "mp-tasks",
                            len(tasks) - len(unfinished),
                            len(tasks),
                        )
                if broken:
                    # One dead worker poisons every in-flight future:
                    # drop them all, rebuild, and re-run what's left.
                    for future, (task, _a, _s, _b) in list(futures.items()):
                        tasks[task].inflight -= 1
                    futures.clear()
                    rebuild_pool()
                    for task in sorted(unfinished):
                        if tasks[task].inflight == 0 and task not in retry_at:
                            if not register_failure(task, "worker died"):
                                return None
                    continue
                now = time.monotonic()
                for future, (task, attempt, submitted, backup) in list(
                    futures.items()
                ):
                    state = tasks[task]
                    if state.done or task not in unfinished:
                        continue
                    age = now - submitted
                    if (
                        policy.task_timeout is not None
                        and age > policy.task_timeout
                    ):
                        # Abandon the attempt (workers can't be
                        # interrupted); its eventual result is ignored.
                        futures.pop(future)
                        state.inflight -= 1
                        report.timeouts += 1
                        if state.inflight > 0:
                            continue
                        if not register_failure(task, f"timeout {age:.1f}s"):
                            return None
                    elif (
                        policy.speculation
                        and not backup
                        and age > policy.straggler_timeout
                        and state.inflight == 1
                    ):
                        report.speculative_launched += 1
                        logger.info(
                            "task %d straggling (%.2fs); launching backup",
                            task, age,
                        )
                        submit(task, backup=True)
            return [tasks[task].rows for task in sorted(tasks)]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _new_pool(self, init_args: tuple) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.processes,
            initializer=_init_worker,
            initargs=init_args,
        )

    def _drain_telemetry(
        self, telemetry_queue, collector: Optional[SpanCollector] = None
    ) -> None:
        """Merge every queued worker flush into the live registry, and
        its new worker spans through *collector* into the tracer.

        Runs inside the gather poll loop (so in-flight runs are
        inspectable) and once more after the pool drains.  Merge order
        does not matter: flushes are cumulative-with-seq, and
        :meth:`TelemetryRegistry.merge_worker` drops stale or
        duplicate deliveries.
        """
        if telemetry_queue is None:
            return
        while True:
            try:
                delta = telemetry_queue.get_nowait()
            except queue_module.Empty:
                return
            except Exception:  # manager shutting down
                return
            if collector is not None and isinstance(delta, dict):
                try:
                    collector.merge(
                        delta.get("worker", "?"), delta.get("spans", ())
                    )
                except (KeyError, TypeError, ValueError):
                    logger.debug("dropping malformed span delivery")
            try:
                self.telemetry.merge_worker(delta)
            except (KeyError, TypeError, ValueError):
                logger.warning("dropped malformed telemetry flush")
