"""A process-parallel local backend with real fault tolerance.

The simulated cluster measures *what the paper measured*; this backend
demonstrates the paper's closing remark that the algorithm "can be
implemented in any OLAP system which supports scatter-and-gather": the
same plan -- feasible key, clustering factor, one local sort/scan per
bucket, owned-region filtering -- executed across real OS processes
with :mod:`concurrent.futures`.

Each gather task carries one reducer bucket of blocks, and by default
there is one bucket per worker process.  A worker evaluates all of a
component's blocks in the bucket with one call of a lifted evaluator
(:mod:`repro.local.lifting`): every record is tagged with its block's
ordinal in the bucket, which leads the sort key and is a coordinate of
every region, so the paper's composite-key sort (Section III-D) keeps
the blocks apart.  Over shared memory the driver writes the batch and
every bucket's block arrays into one segment per evaluation
(:mod:`repro.parallel.shm`); a worker replies with per-measure region
matrices and value arrays, which the driver unions into the result.

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

Each evaluator keeps one pool of worker processes.  The first
:meth:`MultiprocessEvaluator.evaluate` starts it and later calls reuse
it; :meth:`~MultiprocessEvaluator.close`, a ``with`` block, garbage
collection of the evaluator or interpreter exit shut it down.  A pool
that broke (a worker died) is rebuilt inside the evaluation that saw
it break.  An evaluation that leaves an attempt running -- abandoned on
timeout, cancelled, degraded, or the loser of a speculative race --
shuts the pool down before it returns, so the next call starts a fresh
one and no stale attempt outlives the shared memory it reads.  Calls on
one evaluator take turns on its pool.

Every task carries its workflow as an *install*: the serialized
workflow (see :mod:`repro.io`), schema, block schemes, named
expressions and aggregate factories, pickled once per evaluation and
keyed by a hash of those bytes.  A worker rebuilds the evaluators and
filters only for a key it has not kept among its last
:data:`_INSTALL_SLOTS` installs, so repeated queries pay for
evaluation, not set-up.  Measures must therefore use registry
aggregates and *named*, picklable combine expressions; anonymous
lambdas cannot cross process boundaries.  Parameterized aggregates
(exact quantiles) re-register themselves in each worker through the
factory list, once per install.

The result is bit-identical to :func:`repro.local.evaluate_centralized`
-- asserted by the test suite, including under chaos -- because the
execution is the simulated path's: the same routing and partitioning
call (:func:`~repro.parallel.executor.scatter`), the same
:func:`~repro.local.lifting.evaluate_bucket` over the same evaluators
and owned-region filters
(:func:`~repro.parallel.executor.bucket_evaluators`), the same union.
Only where buckets are evaluated -- and the transport, and what can go
wrong with it -- differs.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Mapping, Optional, Sequence

from repro.cube.batches import (
    RecordBatch,
    estimated_pickle_bytes,
    row_tuples,
)
from repro.cube.records import Record, Schema
from repro.faults.inject import apply_chaos
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.io.serialize import workflow_from_dict, workflow_to_dict
from repro.local.lifting import count_rows, evaluate_bucket
from repro.local.measure_table import ResultSet
from repro.local.sortscan import evaluate_centralized
from repro.local.vectorized import vectorized_supports
from repro.obs.telemetry import NULL_TELEMETRY, sample_resources
from repro.obs.tracectx import SpanCollector, TraceContext, wire_span
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.query.functions import Expression
from repro.query.workflow import Workflow, connected_components
from repro.parallel.cancel import CancellationToken
from repro.parallel.executor import (
    bucket_evaluators,
    scatter,
    union_outputs,
)
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    shm_available,
)

logger = logging.getLogger(__name__)

#: How often the gather loop wakes to check retries/stragglers (seconds).
_POLL_SECONDS = 0.02

#: Numbers this process's evaluations.  With the driver's pid it names
#: a worker's telemetry scope and the tasks in it, so evaluations that
#: share one registry or one pool never collide.
_EVALUATIONS = itertools.count()

#: How many installed workflows a worker keeps; the least recently
#: used one goes first.
_INSTALL_SLOTS = 8

#: Report fields recorded once per run as ``mp.<field>`` counters.
_RECOVERY_COUNTERS = (
    "attempts",
    "retries",
    "timeouts",
    "pool_rebuilds",
    "speculative_launched",
    "speculative_wins",
)

# Worker-process state: the active install (schema, evaluators,
# filters), the installs kept by key, and the telemetry scope of the
# evaluation the worker last ran a task for.
_WORKER: dict = {}


def _install(
    workflow_data: dict,
    schema: Schema,
    scheme_specs: list,
    expressions: Optional[Mapping[str, Expression]],
    function_factories: Sequence[tuple],
) -> dict:
    """Rebuild the workflow's evaluators and filters in this process."""
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
    evaluators, filters = bucket_evaluators(
        (
            by_names[frozenset(names)],
            BlockScheme(
                DistributionKey(
                    schema, tuple(KeyComponent(*spec) for spec in key_spec)
                ),
                dict(factors),
            ),
        )
        for names, key_spec, factors in scheme_specs
    )
    return {"schema": schema, "evaluators": evaluators, "filters": filters}


def _use_install(key: str, payload: bytes) -> None:
    """Make install *key* active, unpickling *payload* and rebuilding
    it only when this worker does not keep it already."""
    kept = _WORKER.setdefault("installs", OrderedDict())
    installed = kept.get(key)
    if installed is None:
        installed = kept[key] = _install(*pickle.loads(payload))
        if len(kept) > _INSTALL_SLOTS:
            kept.popitem(last=False)
    else:
        kept.move_to_end(key)
    _WORKER.update(installed)


def _open_scope(
    evaluation: str, telemetry_queue, trace_ctx: Optional[dict]
) -> None:
    """Start this worker's telemetry and trace scope for *evaluation*.

    Counters are cumulative since the scope opened and the worker
    reports under a name that carries *evaluation*, so a registry
    shared by several evaluations keeps each one's totals apart."""
    _WORKER["evaluation"] = evaluation
    # Telemetry channel: cumulative totals of this scope, flushed with
    # a monotone sequence number after every finished task.
    _WORKER["telemetry_queue"] = telemetry_queue
    _WORKER["telemetry_seq"] = 0
    _WORKER["telemetry_counters"] = {"tasks": 0, "rows": 0, "blocks": 0}
    _WORKER["telemetry_tasks"] = {}
    # Trace propagation: the driver's execution-span context, received
    # on the wire.  Task-attempt spans parent under it and ride the
    # telemetry channel inside a bounded ring (the worker-side flight
    # recorder) as (seq, span) pairs, so redelivery dedups cleanly.
    _WORKER["trace_ctx"] = trace_ctx
    _WORKER["span_ring"] = deque(maxlen=128)
    _WORKER["trace_seq"] = 0


def _enter_scope(evaluation: str, channel: Optional[bytes]) -> None:
    """Open *evaluation*'s scope unless this worker is already in it.

    *channel* pickles the telemetry queue and trace context (``None``
    when both are off); it is unpickled once per worker and evaluation,
    so the queue proxy connects to its manager once, not per task."""
    if _WORKER.get("evaluation") == evaluation:
        return
    telemetry_queue, trace_ctx = (
        pickle.loads(channel) if channel is not None else (None, None)
    )
    _open_scope(evaluation, telemetry_queue, trace_ctx)


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
        "worker": f"w{os.getpid()}@{_WORKER['evaluation']}",
        "seq": _WORKER["telemetry_seq"],
        "counters": dict(_WORKER["telemetry_counters"]),
        "tasks": dict(_WORKER.get("telemetry_tasks", {})),
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
    (:func:`~repro.local.lifting.evaluate_bucket`).  Returns the
    bucket's ``(measure, regions, values)`` chunks, arrays where the
    evaluator produced arrays, so the reply pickles arrays, not rows.
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
    chunks: list = []
    evaluate_bucket(
        _WORKER["evaluators"],
        _WORKER["filters"],
        row_tuples(keys),
        counts,
        view.batch(_WORKER["schema"]),
        chunks,
        indices=indices,
    )
    return chunks


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
    the picklable form :func:`_install` rebuilds its schemes from."""
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


def _install_payload(
    workflow: Workflow,
    plan,
    expressions: Optional[Mapping[str, Expression]],
    function_factories: Sequence[tuple],
) -> tuple[str, bytes]:
    """``(key, payload)``: what :func:`_use_install` rebuilds the
    workflow's evaluators from, pickled, and a hash of those bytes --
    measure names included, so two workflows of one shape never share
    an install."""
    payload = pickle.dumps((
        workflow_to_dict(workflow, expressions=expressions),
        workflow.schema,
        _scheme_specs(plan),
        expressions,
        function_factories,
    ))
    return hashlib.blake2b(payload, digest_size=16).hexdigest(), payload


def _bucket_block_count(bucket) -> int:
    """How many blocks one gather bucket carries (any transport)."""
    if isinstance(bucket, ShmBucket):
        return bucket.counts[1]
    return len(bucket)


def _scatter_buckets(
    plan,
    records: list,
    batch: Optional[RecordBatch],
    partitions: int,
    registry: Optional[SegmentRegistry],
) -> tuple[list, int, int, Optional[float]]:
    """The gather tasks' buckets: the simulated path's scatter
    (:func:`~repro.parallel.executor.scatter`), one bucket per
    partition that gets a block.

    With *batch*, one segment of *registry* holds the batch once and
    each bucket's block keys, counts and row indices into it
    (:meth:`ShmBucket.scatter`); only the descriptors cross the pipe.
    Without it a bucket is its ``(block key, records)`` lists.  Returns
    ``(buckets, blocks, replicated_records, materialize_seconds)``, the
    last the wall time spent writing the segment (``None`` for record
    lists).
    """
    shares, replicas = scatter(plan, records, batch, partitions)
    replicated = int(replicas.sum())
    if batch is None:
        buckets = [share for _partition, share in shares]
        return buckets, sum(map(len, buckets)), replicated, None
    started = time.perf_counter()
    buckets = ShmBucket.scatter(
        registry,
        batch,
        [
            (share.key_matrix, share.counts, share.rows)
            for _partition, share in shares
        ],
    )
    return (
        buckets,
        sum(len(share.keys) for _partition, share in shares),
        replicated,
        time.perf_counter() - started,
    )


def _run_task(
    task: int,
    attempt: int,
    bucket: list,
    plan: Optional[FaultPlan],
    install: tuple,
    scope: tuple,
) -> tuple[int, list]:
    """One task attempt inside a worker: inject chaos, then evaluate.

    *install* is ``(key, payload)`` and *scope* ``(evaluation,
    channel)`` (see :func:`_use_install` and :func:`_enter_scope`).
    Returns the task and its chunks (see :func:`_reduce_bucket`)."""
    _use_install(*install)
    _enter_scope(*scope)
    tracing = _WORKER.get("trace_ctx") is not None
    started = time.time() if tracing else 0.0
    try:
        if plan is not None:
            apply_chaos(plan, task, attempt)
        chunks = _reduce_bucket(bucket)
    except BaseException as exc:
        # A failed attempt still leaves a span behind -- best effort:
        # the flush may not land before the process dies, but a chaos
        # *exception* (as opposed to a kill) usually gets through.
        if tracing:
            _record_task_span(task, attempt, started, error=repr(exc))
            _flush_worker_telemetry()
        raise
    rows = count_rows(chunks)
    if tracing:
        _record_task_span(task, attempt, started, rows=rows)
    counters = _WORKER.get("telemetry_counters")
    if _WORKER.get("telemetry_queue") is not None:
        finished = _WORKER["telemetry_tasks"]
        key = f"{_WORKER['evaluation']}:{task}"
        if counters is not None and key not in finished:
            share = {
                "tasks": 1,
                "rows": rows,
                "blocks": _bucket_block_count(bucket),
            }
            for name, value in share.items():
                counters[name] += value
            finished[key] = share
        _flush_worker_telemetry()
    return task, chunks


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
    chunks: Optional[list] = None


class _Pool:
    """One evaluator's worker processes: started on first use, kept
    across evaluations, shut down by :meth:`close`."""

    def __init__(self, processes: int):
        self.processes = processes
        self.executor: Optional[ProcessPoolExecutor] = None

    def get(self) -> ProcessPoolExecutor:
        if self.executor is None:
            if shm_available():
                # Workers started after the driver's resource tracker
                # share it, so the segments they attach are tracked
                # once, whatever transport the first evaluation used.
                resource_tracker.ensure_running()
            self.executor = ProcessPoolExecutor(max_workers=self.processes)
        return self.executor

    def close(self, wait: bool = True) -> None:
        executor, self.executor = self.executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


class MultiprocessEvaluator:
    """Evaluates workflows across OS processes (no simulation).

    Args:
        processes: Worker pool size; defaults to the CPU count.
        optimizer: Plan-search configuration (shared with the simulated
            executor -- the plan is identical, only execution differs).
        expressions: Named combine expressions needed to rebuild the
            workflow in workers (beyond the built-ins).
        function_factories: For parameterized registry aggregates
            (exact quantiles), ``("module.factory", (args,))`` pairs
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

    An evaluation hash-partitions its blocks into one bucket per worker
    process unless :meth:`evaluate` is given ``num_partitions``; the
    plan is made for that many reducers.  More, smaller buckets would
    balance skew better, but at the sizes measured each extra task
    cost more in dispatch and reply than it bought.

    The worker pool starts in the first :meth:`evaluate` and serves
    every later one; :meth:`close` (or leaving a ``with`` block) shuts
    it down, as do garbage collection and interpreter exit.
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
        self._pool = _Pool(self.processes)
        # One evaluation at a time on the pool: a worker's telemetry
        # scope follows the evaluation of its latest task.
        self._pool_lock = threading.Lock()
        # Without waiting: collection may run in any thread, and joining
        # the pool from there can block on that very thread.
        weakref.finalize(self, self._pool.close, False)

    def close(self) -> None:
        """Shut the worker pool down; a later :meth:`evaluate` starts a
        new one."""
        with self._pool_lock:
            self._pool.close()

    def __enter__(self) -> "MultiprocessEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def evaluate(
        self,
        workflow: Workflow,
        records: Sequence[Record],
        num_partitions: Optional[int] = None,
        cancel: CancellationToken | None = None,
        trace: Optional[TraceContext] = None,
    ) -> tuple[ResultSet, MultiprocessReport]:
        """Run the one-round plan over *records* with real processes.

        *num_partitions* is the number of buckets (gather tasks) and of
        reducers the plan is made for; it defaults to
        :attr:`processes`, one bucket per worker.

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
        partitions = num_partitions or self.processes
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
            with self._pool_lock:
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
        work, num_blocks, replicated, transport_seconds = _scatter_buckets(
            plan, records, batch, partitions, registry
        )
        transport = "shm" if batch is not None else "records"

        # Telemetry channel: a managed queue is picklable into task
        # arguments (a plain multiprocessing.Queue is not); the manager
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

        try:
            # Worker task spans are children of this span, so they
            # attach however the gather ends below.
            with self.tracer.span(
                "mp-evaluate", parent=trace,
                tasks=len(work), processes=self.processes,
            ) as exec_span:
                evaluation = f"{os.getpid()}.{next(_EVALUATIONS)}"
                channel = None
                if telemetry_queue is not None:
                    channel = pickle.dumps((
                        telemetry_queue,
                        exec_span.context().to_wire() if tracing else None,
                    ))
                try:
                    chunk_lists = self._gather_resilient(
                        work,
                        _install_payload(
                            workflow, plan, self.expressions,
                            self.function_factories,
                        ),
                        (evaluation, channel),
                        report,
                        telemetry_queue=telemetry_queue,
                        cancel=cancel,
                        exec_span=exec_span,
                        collector=collector,
                    )
                    self._drain_telemetry(telemetry_queue, collector)
                    report.workers = {
                        worker: section
                        for worker, section
                        in self.telemetry.worker_totals().items()
                        if worker.endswith(f"@{evaluation}")
                    }
                    if chunk_lists is None:
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

        if chunk_lists is not None:
            result = union_outputs(
                workflow,
                [chunk for chunks in chunk_lists for chunk in chunks],
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

    # -- resilient gather loop ---------------------------------------------------

    def _gather_resilient(
        self,
        work: Sequence[list],
        install: tuple,
        scope: tuple,
        report: MultiprocessReport,
        telemetry_queue=None,
        cancel: CancellationToken | None = None,
        exec_span=None,
        collector: Optional[SpanCollector] = None,
    ) -> Optional[list[list]]:
        """Run every bucket to completion; ``None`` means degrade.

        The loop mirrors a MapReduce master: dispatch, watch, retry
        with backoff, speculate on stragglers, rebuild the pool when a
        worker dies, and give up (gracefully) only when a task's whole
        budget is spent.  Every attempt carries *install* and *scope*
        (see :func:`_run_task`).  Retry backoffs are recorded as
        ``mp-retry`` children of *exec_span*; worker spans drained from
        the channel go through *collector*.

        The evaluator's pool survives a gather that leaves nothing
        running; otherwise (timeout, cancel, degrade, a speculative
        loser, an error) it is shut down here, and the next gather
        starts a new one.
        """
        if not work:
            return []
        policy = self.retry_policy
        plan = self.fault_plan
        seed = plan.seed if plan is not None else 0
        tasks = {index: _TaskState(bucket) for index, bucket in
                 enumerate(work)}
        pool = self._pool.get()
        futures: dict = {}  # future -> (task, attempt, submitted_at, backup)
        retry_at: dict[int, float] = {}  # task -> wall deadline
        unfinished = set(tasks)
        abandoned = False  # an attempt left running past its timeout
        settled = False  # nothing of this gather runs on the pool

        def submit(task: int, *, backup: bool = False) -> None:
            state = tasks[task]
            attempt = state.next_attempt
            state.next_attempt += 1
            state.inflight += 1
            report.attempts += 1
            report.attempts_per_task[task] = (
                report.attempts_per_task.get(task, 0) + 1
            )
            call = (_run_task, task, attempt, state.bucket, plan, install,
                    scope)
            try:
                future = pool.submit(*call)
            except BrokenProcessPool:
                # A worker of the kept pool died since its last task.
                rebuild_pool()
                future = pool.submit(*call)
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
                self._pool.close(wait=False)
                pool = self._pool.get()
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
                    # finally clause shuts the pool down, and results
                    # of in-flight attempts are never read.
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
                        _task, chunks = future.result()
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
                        state.chunks = chunks
                        unfinished.discard(task)
                        retry_at.pop(task, None)
                        if backup:
                            report.speculative_wins += 1
                        self.telemetry.mark("mp.rows", count_rows(chunks))
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
                        abandoned = True
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
            settled = not futures and not abandoned
            return [tasks[task].chunks for task in sorted(tasks)]
        finally:
            if not settled:
                # Waits for the attempts still running, so none of them
                # outlives the shared memory it reads.
                self._pool.close()

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
