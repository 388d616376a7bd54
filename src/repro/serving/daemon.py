"""The always-on query service: ``repro serve``.

:class:`QueryService` turns the one-shot batch machinery into a
long-running daemon that accepts a *stream* of composite-aggregate
queries (many tenants, open-loop arrivals) and answers every one
bit-identically to a standalone run -- while refusing to melt when
offered load exceeds capacity.  The life of one submitted query:

1. **Quota.**  The tenant's token bucket
   (:class:`~repro.serving.quotas.TenantQuotas`) must admit it, else a
   structured :class:`Overloaded` response (``reason="quota"``).
2. **Backpressure.**  If held + queued + in-flight work already
   exceeds ``limits.max_pending`` (or the ready queue is at depth),
   the query is shed with ``reason="queue_full"`` -- explicit load
   shedding instead of unbounded latency.
3. **Cache fast path.**  Each component is classified by the batch
   planner's :func:`~repro.serving.planner.classify_component`; one
   whose measures are already materialized for this dataset (or
   derivable centrally from cached basics) is answered immediately by
   the batch executor's :func:`~repro.serving.executor.load_component`
   from the read-only tables classification found -- no job and no
   per-row copy: a hit hands out the cache's stored rows.
4. **Admission window.**  Execute components are held up to the
   window by the :class:`~repro.serving.admission.AdmissionController`
   looking for partners whose merged plan wins the Formula 2/4 test;
   the group dispatches when the window expires, the merge stops
   winning, or the group is full.  A group computes each distinct
   measure once (:func:`~repro.serving.groups.merge`); a member whose
   measure another member already computes gets its own copy of that
   table, counted by the ``serve.shared_measures`` telemetry counter.
5. **Bounded queue -> workers.**  Dispatched groups wait in a
   :class:`~repro.serving.queueing.BoundedPriorityQueue` and are taken
   off it by ``limits.max_inflight`` worker tasks.  Every group runs on
   the service's one simulated cluster, evaluator and input file,
   which run in this interpreter, so the workers take turns executing:
   two evaluations in two threads only contend for the GIL, which cost
   the columnar evaluator two fifths more CPU per group and made a
   burst's wall depend on how the threads happened to interleave.  A
   worker still takes its next group off the queue while the other
   executes, and waits for the turn in ``queue_wait``.  Per-query
   deadlines propagate as a
   :class:`~repro.parallel.cancel.CancellationToken` (the group's
   latest member deadline), cancelling map/shuffle/reduce work that
   can no longer help anyone.
6. **Circuit breaker.**  Repeated backend failures open the breaker:
   groups are served by the centralized evaluator (the bit-identity
   oracle) for a cooldown instead of hammering a broken pool; a
   half-open probe closes it again.
7. **Graceful drain.**  On SIGTERM (or :meth:`QueryService.drain`) the
   daemon stops admitting, dispatches every held group, finishes the
   queue and in-flight work, persists the cache, and writes a final
   run manifest.

Answers are bit-identical to ``repro batch`` and the centralized
oracle in every path -- shared groups change where work happens, never
its inputs or fold order, and the fallback *is* the oracle.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.cube.records import Record
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.counters import JobReport
from repro.obs.ledger import LedgerBook
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracectx import TraceContext
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.optimizer import Optimizer, Plan, QueryPlan
from repro.parallel.cancel import CancellationToken, DeadlineExceededError
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.query.workflow import Workflow, connected_components
from repro.serving.admission import AdmissionController, PendingGroup
from repro.serving.cache import MeasureCache
from repro.serving.executor import (
    load_component,
    split_by_query,
    store_component,
)
from repro.serving.groups import (
    QUERY_SEPARATOR,
    BatchUnit,
    prefix_workflow,
)
from repro.serving.incremental import AppendReport, IncrementalMaintainer
from repro.serving.planner import (
    DISPOSITION_EXECUTE,
    ComponentPlan,
    check_catalog,
    classify_component,
)
from repro.serving.queueing import BoundedPriorityQueue
from repro.serving.quotas import TenantQuotas
from repro.serving.signature import DatasetHasher, partition_digest

__all__ = [
    "BreakerConfig",
    "Overloaded",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ServeReport",
    "ServiceLimits",
    "serve_arrivals",
]

logger = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_DEADLINE = "deadline"
STATUS_ERROR = "error"

SHED_QUEUE_FULL = "queue_full"
SHED_QUOTA = "quota"
SHED_DRAINING = "draining"


@dataclass(frozen=True)
class ServiceLimits:
    """Where the daemon starts refusing instead of queueing."""

    #: Share groups allowed to wait for a worker.
    max_queue_depth: int = 16
    #: Groups taken off the queue at once (worker tasks); they take
    #: turns executing on the service's one cluster (see the module
    #: docstring).
    max_inflight: int = 2
    #: Queries allowed in the system at once (held + queued + running);
    #: past this, submits shed with ``queue_full``.
    max_pending: int = 64
    #: Admission window: how long a query may wait for share partners.
    admission_window_ms: float = 50.0
    #: Dispatch a held group after this many consecutive arrivals
    #: declined to join it (``None``: wait out the window).
    merge_patience: Optional[int] = 4
    #: Members per share group before immediate dispatch.
    max_group_size: int = 8


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit breaker over the group-execution backend."""

    #: Consecutive failures that open the circuit.
    threshold: int = 3
    #: Seconds the circuit stays open before a half-open probe.
    cooldown_s: float = 5.0


@dataclass(frozen=True)
class Overloaded:
    """Structured rejection attached to a shed response."""

    reason: str
    queue_depth: int = 0
    inflight: int = 0
    held: int = 0
    #: Client hint: when trying again might succeed (milliseconds).
    retry_after_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "held": self.held,
            "retry_after_ms": self.retry_after_ms,
        }


@dataclass(frozen=True)
class QueryRequest:
    """One submission to the daemon."""

    #: Catalog name of the query (reporting; need not be unique).
    name: str
    workflow: Workflow
    tenant: str = "default"
    #: Milliseconds after submission by which the answer is useless.
    deadline_ms: Optional[float] = None
    #: Lower runs first.
    priority: int = 0


@dataclass
class QueryResponse:
    """What the daemon returns for one submission."""

    name: str
    tenant: str
    #: ``ok`` | ``overloaded`` | ``deadline`` | ``error``.
    status: str
    result: Optional[ResultSet] = None
    latency_ms: float = 0.0
    #: Catalog names co-evaluated with this query (itself included)
    #: when any component ran in a share group.
    group_queries: list[str] = field(default_factory=list)
    #: Structured shed detail when ``status == "overloaded"``.
    overload: Optional[Overloaded] = None
    error: str = ""
    #: The answer arrived after the request's own deadline (still
    #: correct, merely late; cancelled queries get ``deadline``).
    late: bool = False
    #: How components were served: subset of
    #: {"cache", "derive", "group", "fallback"}.
    served_by: list[str] = field(default_factory=list)
    #: Trace id of this submission (``repro trace --query <id>``);
    #: set for every arrival, shed ones included.
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class ServeReport:
    """Post-mortem of one daemon lifetime (the manifest's serving section)."""

    arrivals: int = 0
    completed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    deadline_missed: int = 0
    late: int = 0
    errors: int = 0
    fallbacks: int = 0
    breaker_trips: int = 0
    groups_dispatched: int = 0
    grouped_queries: int = 0
    appends: int = 0
    appended_records: int = 0
    admission: dict = field(default_factory=dict)
    queue: dict = field(default_factory=dict)
    quotas: dict = field(default_factory=dict)
    cache: Optional[dict] = None
    latency_ms: dict = field(default_factory=dict)
    drained: bool = False

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    def to_dict(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "shed": dict(sorted(self.shed.items())),
            "deadline_missed": self.deadline_missed,
            "late": self.late,
            "errors": self.errors,
            "fallbacks": self.fallbacks,
            "breaker_trips": self.breaker_trips,
            "groups_dispatched": self.groups_dispatched,
            "grouped_queries": self.grouped_queries,
            "appends": self.appends,
            "appended_records": self.appended_records,
            "admission": dict(self.admission),
            "queue": dict(self.queue),
            "quotas": dict(self.quotas),
            "cache": self.cache,
            "latency_ms": dict(self.latency_ms),
            "drained": self.drained,
        }

    def summary(self) -> str:
        latency = self.latency_ms or {}
        return (
            f"serve: {self.arrivals} arrivals, {self.completed} completed, "
            f"{self.total_shed} shed, {self.deadline_missed} deadline, "
            f"{self.groups_dispatched} groups "
            f"(p50 {latency.get('p50', 0.0):.1f}ms, "
            f"p99 {latency.get('p99', 0.0):.1f}ms)"
        )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(
        0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[rank]


def latency_percentiles(latencies_ms: Sequence[float]) -> dict:
    """The ``p50/p95/p99/max/count`` block benchmark and report share."""
    ordered = sorted(latencies_ms)
    return {
        "count": len(ordered),
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
        "p99": _percentile(ordered, 0.99),
        "max": ordered[-1] if ordered else 0.0,
        "mean": (sum(ordered) / len(ordered)) if ordered else 0.0,
    }


@dataclass
class _Member:
    """One pending request component riding a share group."""

    pending: "_PendingRequest"
    #: The component's disposition, cache keys and (once it executes)
    #: its unit; ``query`` is the request's internal id.
    component: ComponentPlan
    #: Daemon clock when the component entered the admission window
    #: (the ledger's admission_hold phase starts here).
    offered_at: Optional[float] = None
    #: Same instant on the trace wall clock (admission-span start).
    offer_wall: float = 0.0

    def execute_as(self, solo: Plan) -> None:
        """Attach the component's execute unit: its measures under the
        request's ``qN/`` prefix, priced by the name-free *solo* plan."""
        query = self.component.query
        self.component.unit = BatchUnit(
            query,
            prefix_workflow(
                self.component.workflow, query + QUERY_SEPARATOR
            ),
            solo,
        )


class _PendingRequest:
    """Daemon-side state of one admitted query."""

    def __init__(
        self,
        request: QueryRequest,
        serial: int,
        submitted_at: float,
        deadline_at: Optional[float],
    ):
        self.request = request
        #: Unique internal id; prefixes this request's merged measures
        #: and doubles as the query's trace id.
        self.internal = f"q{serial}"
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        #: Root trace context (set by submit when tracing is wired).
        self.ctx: Optional[TraceContext] = None
        #: Trace wall clock at submission (root-span start).
        self.trace_started = 0.0
        self.tables: dict[str, MeasureTable] = {}
        self.remaining = 0
        self.served_by: list[str] = []
        self.group_queries: list[str] = []
        self.future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )

    def component_done(self, tables: Mapping[str, MeasureTable]) -> None:
        self.tables.update(tables)
        self.remaining -= 1

    @property
    def complete(self) -> bool:
        return self.remaining <= 0


class _CircuitBreaker:
    """Closed -> open (cooldown) -> half-open -> closed."""

    def __init__(self, config: BreakerConfig, clock: Callable[[], float]):
        self.config = config
        self.clock = clock
        self.failures = 0
        self.trips = 0
        self.opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self.clock() - self.opened_at >= self.config.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether the next group may try the real backend."""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self.failures += 1
        if self.opened_at is None and (
            self.failures >= self.config.threshold
        ):
            self.trips += 1
            self.opened_at = self.clock()
            logger.warning(
                "circuit breaker OPEN after %d consecutive failures; "
                "serving centrally for %.1fs",
                self.failures, self.config.cooldown_s,
            )
        elif self.opened_at is not None:
            # Failed probe: restart the cooldown.
            self.opened_at = self.clock()


class _Execution:
    """The service's one group executor: one simulated cluster, one
    evaluator and one input file, run by every worker task in turn.

    *turn* is the lock a worker task executes under.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExecutionConfig,
        records: Sequence[Record],
        telemetry,
    ):
        self.turn = threading.Lock()
        self.cluster = cluster
        self.evaluator = ParallelEvaluator(
            cluster, config, telemetry=telemetry
        )
        self.load(records)

    def load(self, records: Sequence[Record]) -> None:
        """Make *records* the input of every later group."""
        self.input_file = self.cluster.dfs.write("serve-input", records)

    def run_group(
        self,
        workflow: Workflow,
        plan: Plan,
        cancel: Optional[CancellationToken],
    ) -> tuple[ResultSet, dict[str, float]]:
        """Run one group; returns the result and the wall seconds of
        each execution phase (planning/map/shuffle/reduce), after the
        ``queue_wait`` for this worker task's turn.

        The job report's phase stamps mark the map/reduce boundaries;
        they tile the run's wall time exactly, so the latency ledger
        attributes execution exhaustively.
        """
        waited = time.perf_counter()
        with self.turn:
            run_start = time.perf_counter()
            outcome = self.evaluator.evaluate(
                workflow,
                self.input_file,
                plan=QueryPlan([(workflow, plan)]),
                cancel=cancel,
            )
            run_end = time.perf_counter()
        return outcome.result, {
            "queue_wait": run_start - waited,
            **self._phase_walls(outcome.job, run_start, run_end),
        }

    @staticmethod
    def _phase_walls(
        job: JobReport, run_start: float, run_end: float
    ) -> dict[str, float]:
        map_start = job.wall_map_start
        map_end = job.wall_map_end
        reduce_start = max(map_end, job.wall_reduce_start)
        return {
            "planning": max(0.0, map_start - run_start),
            "map": max(0.0, map_end - map_start),
            "shuffle": max(0.0, reduce_start - map_end),
            "reduce": max(0.0, run_end - reduce_start),
        }


class QueryService:
    """The long-running serving daemon (see module docstring).

    *catalog* maps query names to workflows (what ``repro loadgen``
    arrival traces reference); *records* is the one dataset this
    daemon serves.  *cluster_factory* builds the one simulated cluster
    every group runs on (called once, by :meth:`start`).  All answers
    are bit-identical to standalone runs.
    """

    def __init__(
        self,
        catalog: Mapping[str, Workflow],
        records: Sequence[Record],
        cluster_factory: Callable[[], SimulatedCluster] | None = None,
        config: ExecutionConfig | None = None,
        cache: MeasureCache | None = None,
        limits: ServiceLimits | None = None,
        quotas: TenantQuotas | None = None,
        breaker: BreakerConfig | None = None,
        telemetry=None,
        tracer=None,
        slo=None,
        flight=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not catalog:
            raise ValueError("the serving catalog needs at least one query")
        config = config or ExecutionConfig()
        if config.early_aggregation:
            raise ValueError(
                "serving requires early_aggregation=False: partial-state "
                "merging can reorder float folds, which would break the "
                "bit-identical-to-standalone guarantee"
            )
        self.catalog = dict(catalog)
        self.records = list(records)
        self.cluster_factory = cluster_factory or (
            lambda: SimulatedCluster(ClusterConfig(machines=8))
        )
        self.config = config
        self.cache = cache
        self.limits = limits or ServiceLimits()
        self.quotas = quotas or TenantQuotas(clock=clock)
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        if cache is not None:
            cache.attach_telemetry(self.telemetry)
        #: Per-query span recorder (opt-in); the ledger is always on.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per-tenant SLO burn tracking (None: untracked).
        self.slo = slo
        #: Flight recorder for triggered bundle dumps (None: off).
        self.flight = flight
        self.ledgers = LedgerBook()
        self._shed_times: deque = deque(maxlen=64)
        self.clock = clock
        self.breaker = _CircuitBreaker(
            breaker or BreakerConfig(), clock
        )
        self.queue: BoundedPriorityQueue = BoundedPriorityQueue(
            self.limits.max_queue_depth
        )
        self.optimizer = Optimizer(config.optimizer)

        schema = check_catalog(self.catalog)
        self.schema = schema
        #: Incrementally maintained dataset identity: appends extend the
        #: hasher in O(delta) and the fingerprint stays exactly equal to
        #: a batch run's ``dataset_fingerprint`` over the same records.
        self._hasher: Optional[DatasetHasher] = None
        #: Append provenance: one ``{"digest", "n_records"}`` entry per
        #: partition applied so far (the base dataset first).
        self._partitions: list[dict] = []
        if cache is not None:
            self._hasher = DatasetHasher(schema)
            self._hasher.update(self.records)
            self._partitions.append(
                {
                    "digest": partition_digest(self.records, schema),
                    "n_records": len(self.records),
                }
            )
        self.fingerprint = (
            self._hasher.fingerprint() if self._hasher is not None else ""
        )

        self._serial = 0
        self._draining = False
        self._drained = False
        self._started = False
        self._inflight = 0
        #: Runs every group (built by :meth:`start`).
        self._execution: Optional[_Execution] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._work_available: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        #: Set (open) except while an append is installing new data;
        #: submissions wait on it so their cache keys never straddle a
        #: fingerprint change.
        self._append_gate: Optional[asyncio.Event] = None
        self._latencies_ms: list[float] = []
        self._report = ServeReport()
        #: Forms share groups and memoizes every plan, solo and merged,
        #: by workflow shape (built by :meth:`start`).
        self.admission: Optional[AdmissionController] = None
        self.num_reducers = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Build workers and background tasks; idempotent."""
        if self._started:
            return
        self._started = True
        self._work_available = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._append_gate = asyncio.Event()
        self._append_gate.set()
        self._execution = _Execution(
            self.cluster_factory(), self.config, self.records,
            self.telemetry,
        )
        self.num_reducers = (
            self.config.num_reducers
            or self._execution.cluster.reduce_slots
        )
        self.admission = AdmissionController(
            self.optimizer,
            n_records=len(self.records),
            num_reducers=self.num_reducers,
            window=self.limits.admission_window_ms / 1000.0,
            merge_patience=self.limits.merge_patience,
            max_group_size=self.limits.max_group_size,
            clock=self.clock,
        )
        self._dispatcher_task = asyncio.create_task(self._dispatch_loop())
        for index in range(self.limits.max_inflight):
            self._worker_tasks.append(
                asyncio.create_task(self._worker_loop(index))
            )
        logger.info(
            "serve: started (%d workers, window %.0fms, queue depth %d, "
            "%d catalog queries, %d records)",
            self.limits.max_inflight,
            self.limits.admission_window_ms,
            self.limits.max_queue_depth,
            len(self.catalog),
            len(self.records),
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (CLI entry point);
        SIGUSR2 dumps the flight recorder when one is attached."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )
        if self.flight is not None:
            loop.add_signal_handler(
                signal.SIGUSR2, lambda: self.flight.dump("sigusr2")
            )

    # -- submission -------------------------------------------------------

    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Serve one query; never raises for overload/deadline/faults."""
        await self.start()
        # An in-progress append is swapping the dataset identity; wait
        # for it so this query's cache keys bind to one fingerprint.
        while not self._append_gate.is_set():
            await self._append_gate.wait()
        now = self.clock()
        self._serial += 1
        serial = self._serial
        self._report.arrivals += 1
        self.telemetry.inc("serve.arrivals")
        self.telemetry.mark("serve.arrival_rate")

        shed = self._shed_reason(request)
        if shed is not None:
            return self._overloaded(request, shed, trace_id=f"q{serial}")

        workflow = request.workflow
        deadline_at = (
            None
            if request.deadline_ms is None
            else now + request.deadline_ms / 1000.0
        )
        pending = _PendingRequest(request, serial, now, deadline_at)
        pending.ctx = self.tracer.mint(pending.internal)
        pending.trace_started = self.tracer.now()
        ledger = self.ledgers.open(
            pending.internal, request.name, request.tenant, now
        )

        fast: list[_Member] = []
        execute: list[_Member] = []
        for component in connected_components(workflow):
            member = _Member(
                pending,
                classify_component(
                    self.cache, self.fingerprint, pending.internal,
                    component,
                ),
            )
            pending.remaining += 1
            if member.component.disposition == DISPOSITION_EXECUTE:
                execute.append(member)
            else:
                fast.append(member)

        for member in fast:
            self._serve_fast(member)
        plan_start = self.clock()
        # Classification plus the cache fast path: lookups dominate.
        ledger.add("cache_lookup", plan_start - now)
        for member in execute:
            member.execute_as(
                self.admission.solo_plan(member.component.workflow)
            )
        offer_at = self.clock()
        ledger.add("planning", offer_at - plan_start)
        offer_wall = self.tracer.now()
        for member in execute:
            member.offered_at = offer_at
            member.offer_wall = offer_wall
            self._idle.clear()
            self.admission.offer(member.component.unit, member, now=now)
        self.telemetry.set_gauge("serve.held", float(self.admission.held))

        if pending.complete and not execute:
            return self._finish(pending)
        try:
            return await pending.future
        except asyncio.CancelledError:
            raise

    def _shed_reason(self, request: QueryRequest) -> Optional[Overloaded]:
        """The structured rejection to return, or ``None`` to admit."""
        held = self.admission.held if self.admission is not None else 0
        depth = len(self.queue)
        if self._draining:
            return Overloaded(
                reason=SHED_DRAINING,
                queue_depth=depth,
                inflight=self._inflight,
                held=held,
            )
        if not self.quotas.admit(request.tenant):
            return Overloaded(
                reason=SHED_QUOTA,
                queue_depth=depth,
                inflight=self._inflight,
                held=held,
                retry_after_ms=self.quotas.retry_after(request.tenant)
                * 1000.0,
            )
        pending_load = held + depth + self._inflight
        if self.queue.full or pending_load >= self.limits.max_pending:
            return Overloaded(
                reason=SHED_QUEUE_FULL,
                queue_depth=depth,
                inflight=self._inflight,
                held=held,
                retry_after_ms=self.limits.admission_window_ms,
            )
        return None

    def _overloaded(
        self,
        request: QueryRequest,
        overload: Overloaded,
        trace_id: str = "",
    ) -> QueryResponse:
        self._report.shed[overload.reason] = (
            self._report.shed.get(overload.reason, 0) + 1
        )
        self.telemetry.inc("serve.shed")
        self.telemetry.inc(f"serve.shed.{overload.reason}")
        self._slo_record(request.tenant, None, failed=True)
        self._note_shed(request, overload.reason)
        if self.tracer.enabled and trace_id:
            # Shed queries still get a (one-span) trace carrying the
            # decision, so "what happened to q-42" always has an answer.
            ctx = self.tracer.mint(trace_id)
            wall = self.tracer.now()
            self.tracer.record(
                ctx, "shed", wall, wall,
                reason=overload.reason,
                queue_depth=overload.queue_depth,
                held=overload.held,
            )
            self.tracer.close(
                ctx, request.name, wall, wall,
                tenant=request.tenant, status=STATUS_OVERLOADED,
            )
        return QueryResponse(
            name=request.name,
            tenant=request.tenant,
            status=STATUS_OVERLOADED,
            overload=overload,
            trace_id=trace_id,
        )

    def _note_shed(self, request: QueryRequest, reason: str) -> None:
        """Feed the flight recorder; a burst of sheds dumps a bundle."""
        if self.flight is None:
            return
        self.flight.note(
            "shed", query=request.name, tenant=request.tenant,
            reason=reason,
        )
        now = self.clock()
        self._shed_times.append(now)
        recent = sum(1 for t in self._shed_times if now - t <= 1.0)
        if recent >= 10:
            self.flight.dump("shed_storm", sheds_last_second=recent)

    def _slo_record(
        self, tenant: str, latency_ms: Optional[float], failed: bool
    ) -> None:
        if self.slo is None:
            return
        good = self.slo.record(tenant, latency_ms, failed=failed)
        if good is None:
            return
        self.telemetry.inc(
            f"slo.{tenant}.good" if good else f"slo.{tenant}.bad"
        )
        self.telemetry.set_gauge(
            f"slo.{tenant}.burn", self.slo.burn_rate(tenant)
        )

    # -- classification ---------------------------------------------------

    def _serve_fast(self, member: _Member) -> None:
        """Answer a cached/derived component without any job."""
        disposition = member.component.disposition
        member.pending.served_by.append(disposition)
        member.pending.component_done(
            load_component(self.cache, member.component)
        )
        self.telemetry.inc(f"serve.{disposition}_served")

    # -- dispatch ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        tick = max(0.001, self.limits.admission_window_ms / 4000.0)
        while True:
            try:
                await asyncio.sleep(tick)
                self._dispatch_due()
            except asyncio.CancelledError:
                return
            except Exception:  # pragma: no cover - defensive
                logger.exception("serve: dispatcher error")

    def _dispatch_due(self, flush: bool = False) -> None:
        if self.admission is None:
            return
        groups = (
            self.admission.flush() if flush else self.admission.due()
        )
        for group in groups:
            self._enqueue_group(group, force=flush)
        self.telemetry.set_gauge("serve.held", float(self.admission.held))
        self.telemetry.set_gauge("serve.queue_depth", float(len(self.queue)))

    def _enqueue_group(self, group: PendingGroup, force: bool = False) -> None:
        members = [m for m in group.riders if m is not None]
        priority = min(
            (m.pending.request.priority for m in members), default=0
        )
        deadlines = [m.pending.deadline_at for m in members]
        earliest = min(
            (d for d in deadlines if d is not None), default=None
        )
        accepted = self.queue.offer(group, priority, earliest)
        if not accepted and force:
            # Drain must not lose held work; depth no longer matters.
            self.queue.max_depth = max(
                self.queue.max_depth, len(self.queue) + 1
            )
            accepted = self.queue.offer(group, priority, earliest)
        if not accepted:
            for member in members:
                self._fail_member(
                    member,
                    STATUS_OVERLOADED,
                    overload=Overloaded(
                        reason=SHED_QUEUE_FULL,
                        queue_depth=len(self.queue),
                        inflight=self._inflight,
                        held=self.admission.held,
                        retry_after_ms=self.limits.admission_window_ms,
                    ),
                    stall_phase="admission_hold",
                )
            return
        group.enqueued_at = self.clock()
        group.queued_wall = self.tracer.now()
        for member in members:
            ledger = self.ledgers.get(member.pending.internal)
            if ledger is not None and member.offered_at is not None:
                ledger.add_window(
                    "admission_hold", member.offered_at, group.enqueued_at
                )
            if self.tracer.enabled and member.pending.ctx is not None:
                self.tracer.record(
                    member.pending.ctx, "admission",
                    member.offer_wall or group.queued_wall,
                    group.queued_wall,
                    group=group.group_id, group_size=len(members),
                )
        self._report.groups_dispatched += 1
        self._report.grouped_queries += len(members)
        self.telemetry.inc("serve.groups_dispatched")
        self.telemetry.observe("serve.group_size", len(members))
        self._work_available.set()

    # -- workers ----------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        while True:
            group = self.queue.take()
            if group is None:
                self._maybe_idle()
                self._work_available.clear()
                try:
                    await asyncio.wait_for(
                        self._work_available.wait(), timeout=0.05
                    )
                except asyncio.TimeoutError:
                    pass
                except asyncio.CancelledError:
                    return
                continue
            self._inflight += 1
            self.telemetry.set_gauge("serve.inflight", float(self._inflight))
            self.telemetry.set_gauge(
                "serve.queue_depth", float(len(self.queue))
            )
            try:
                await self._execute_group(index, group)
            except asyncio.CancelledError:
                self._inflight -= 1
                raise
            except Exception:  # pragma: no cover - defensive
                logger.exception("serve: worker %d crashed on a group", index)
            self._inflight -= 1
            self.telemetry.set_gauge("serve.inflight", float(self._inflight))
            self._maybe_idle()

    def _maybe_idle(self) -> None:
        if (
            self._idle is not None
            and not len(self.queue)
            and self._inflight == 0
            and (self.admission is None or self.admission.held == 0)
        ):
            self._idle.set()

    def _group_token(
        self, members: list[_Member]
    ) -> Optional[CancellationToken]:
        """The group deadline: latest member deadline, if all have one.

        One member without a deadline keeps the group uncancellable --
        that member is owed an answer no matter how long it takes.
        """
        deadlines = [m.pending.deadline_at for m in members]
        if not deadlines or any(d is None for d in deadlines):
            return None
        return CancellationToken(deadline=max(deadlines), clock=self.clock)

    async def _execute_group(self, slot: int, group: PendingGroup) -> None:
        members = [m for m in group.riders if m is not None]
        entry = self.clock()
        queued_end = self.tracer.now()
        for member in members:
            ledger = self.ledgers.get(member.pending.internal)
            if ledger is not None and group.enqueued_at is not None:
                ledger.add_window("queue_wait", group.enqueued_at, entry)
            if self.tracer.enabled and member.pending.ctx is not None:
                self.tracer.record(
                    member.pending.ctx, "queued",
                    group.queued_wall or queued_end, queued_end,
                    group=group.group_id,
                )
        token = self._group_token(members)
        if token is not None and token.expired:
            # Everyone's deadline passed while queued: don't run at all.
            for member in members:
                self._fail_member(
                    member, STATUS_DEADLINE, stall_phase="queue_wait"
                )
            return

        group_names = sorted(
            {m.pending.request.name for m in members}
        )
        # The group's single execution span: primary trace is the first
        # member's, every other member's root span rides along as a
        # link -- one execution subtree reachable from each query tree.
        exec_ctx: Optional[TraceContext] = None
        if self.tracer.enabled and members[0].pending.ctx is not None:
            links = [
                (m.pending.ctx.trace_id, m.pending.ctx.span_id)
                for m in members[1:]
                if m.pending.ctx is not None
            ]
            exec_ctx = self.tracer.fork(
                members[0].pending.ctx, links=links
            )
        exec_wall = self.tracer.now()
        use_backend = self.breaker.allow()
        result: Optional[ResultSet] = None
        phases: dict[str, float] = {}
        error = ""
        if use_backend:
            try:
                result, phases = await asyncio.to_thread(
                    self._execution.run_group,
                    group.workflow, group.plan, token,
                )
                self.breaker.record_success()
            except DeadlineExceededError:
                # The deadline cut the job somewhere inside the backend
                # pipeline; without phase walls for the cancelled run,
                # charge the truncated execution to its first phase.
                for member in members:
                    self._fail_member(
                        member, STATUS_DEADLINE, stall_phase="map"
                    )
                return
            except Exception as exc:  # noqa: BLE001 - breaker decides
                error = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "serve: group [%s] failed on backend: %s",
                    ", ".join(group_names), error,
                )
                self.breaker.record_failure()
                if self.breaker.trips > self._report.breaker_trips:
                    self._report.breaker_trips = self.breaker.trips
                self.telemetry.inc("serve.backend_failures")
                if exec_ctx is not None:
                    self.tracer.event(
                        exec_ctx, "backend-failure", error=error
                    )
                if self.flight is not None:
                    self.flight.note(
                        "backend_failure", error=error,
                        queries=",".join(group_names),
                    )
        self.telemetry.set_gauge(
            "serve.breaker_open",
            0.0 if self.breaker.state == "closed" else 1.0,
        )

        fallback = result is None
        if fallback:
            # Breaker open (or the attempt just failed): the
            # centralized oracle serves the same bit-identical answer.
            if token is not None and token.expired:
                for member in members:
                    self._fail_member(
                        member, STATUS_DEADLINE, stall_phase="map"
                    )
                return
            try:
                fallback_start = time.perf_counter()
                result = await asyncio.to_thread(
                    evaluate_centralized, group.workflow, self.records
                )
                # The oracle is one centralized fold with no
                # map/shuffle split; charge it all to reduce.
                phases = {
                    "reduce": time.perf_counter() - fallback_start
                }
            except Exception as exc:  # noqa: BLE001 - answer is lost
                for member in members:
                    self._fail_member(
                        member, STATUS_ERROR,
                        error=error or f"{type(exc).__name__}: {exc}",
                        stall_phase="map",
                    )
                return
            self._report.fallbacks += len(members)
            self.telemetry.inc("serve.fallbacks")

        exec_end = self.tracer.now()
        if exec_ctx is not None:
            # Phase children tile the execution interval sequentially
            # (the durations come from the job report's phase stamps),
            # after the wait for the worker's turn.
            cursor = exec_wall + phases.get("queue_wait", 0.0)
            for phase in ("planning", "map", "shuffle", "reduce"):
                width = phases.get(phase, 0.0)
                if width > 0:
                    self.tracer.record(
                        exec_ctx, phase, cursor, cursor + width,
                        process=f"slot{slot}",
                    )
                    cursor += width
            if fallback:
                self.tracer.event(
                    exec_ctx, "fallback", queries=",".join(group_names)
                )
            self.tracer.close(
                exec_ctx, "execute", exec_wall, exec_end,
                process=f"slot{slot}",
                queries=",".join(group_names),
                group=group.group_id,
                fallback=fallback,
            )

        # Split merged "qN/measure" tables back per member request.
        split_start = self.clock()
        by_internal = split_by_query(group, result)
        self.telemetry.inc("serve.shared_measures", group.shared_measures)
        for member in members:
            store_component(
                self.cache, member.component,
                by_internal[member.pending.internal],
            )
        split_seconds = self.clock() - split_start
        for member in members:
            pending = member.pending
            ledger = self.ledgers.get(pending.internal)
            if ledger is not None:
                # Every member waited out the same shared execution
                # wall time; each query's ledger carries all of it --
                # clipped, so two of its components executing
                # concurrently cannot attribute the same wall second
                # twice.
                ledger.add_phases(phases, entry, split_start)
                ledger.add_window(
                    "result_split", split_start,
                    split_start + split_seconds,
                )
            tables = by_internal[pending.internal]
            pending.served_by.append("fallback" if fallback else "group")
            if len(members) > 1:
                pending.group_queries = group_names
            pending.component_done(tables)
            if pending.complete:
                self._finish(pending)

    # -- completion -------------------------------------------------------

    def _close_ledger(
        self, pending: _PendingRequest, status: str, ended_at: float
    ) -> None:
        """Close the query's ledger at *ended_at*, the instant its
        latency was measured, and feed the phase telemetry."""
        ledger = self.ledgers.get(pending.internal)
        if ledger is None or ledger.closed:
            return
        ledger.close(ended_at, status)
        tenant = ledger.tenant or "-"
        for phase, ms in ledger.phases.items():
            if ms:
                self.telemetry.observe(f"ledger.{phase}_ms", ms)
                self.telemetry.inc(f"ledger.sum.{tenant}.{phase}", ms)
        self.telemetry.observe("ledger.residual_ms", abs(ledger.residual_ms))
        self.telemetry.inc(f"ledger.sum.{tenant}.total", ledger.total_ms)
        self.telemetry.inc(f"ledger.n.{tenant}")

    def _close_trace(
        self, pending: _PendingRequest, status: str, latency_ms: float
    ) -> None:
        """Record the query's root span (the whole daemon residence)."""
        if not self.tracer.enabled or pending.ctx is None:
            return
        self.tracer.close(
            pending.ctx,
            pending.request.name,
            pending.trace_started,
            self.tracer.now(),
            tenant=pending.request.tenant,
            status=status,
            latency_ms=round(latency_ms, 3),
            served_by=",".join(pending.served_by),
        )

    def _fail_member(
        self,
        member: _Member,
        status: str,
        overload: Optional[Overloaded] = None,
        error: str = "",
        stall_phase: str = "",
    ) -> None:
        """One component failed terminally: resolve the whole request.

        *stall_phase* names where the query was stuck when it died
        (admission hold, queue, execution); the still-unattributed tail
        of its residence is charged there so failed queries' ledgers
        tile their latency just like successful ones.
        """
        pending = member.pending
        if pending.future.done():
            return
        now = self.clock()
        if stall_phase:
            ledger = self.ledgers.get(pending.internal)
            if ledger is not None and not ledger.closed:
                ledger.add_window(stall_phase, ledger.window_until, now)
        latency_ms = (now - pending.submitted_at) * 1000.0
        if status == STATUS_DEADLINE:
            self._report.deadline_missed += 1
            self.telemetry.inc("serve.deadline_missed")
            if self.tracer.enabled and pending.ctx is not None:
                self.tracer.event(
                    pending.ctx, "deadline-missed",
                    deadline_ms=pending.request.deadline_ms,
                )
            if self.flight is not None:
                self.flight.dump(
                    "deadline_miss", query=pending.request.name,
                    trace_id=pending.internal,
                )
        elif status == STATUS_ERROR:
            self._report.errors += 1
            self.telemetry.inc("serve.errors")
            if self.tracer.enabled and pending.ctx is not None:
                self.tracer.event(pending.ctx, "error", error=error)
            if self.flight is not None:
                self.flight.dump(
                    "error", query=pending.request.name,
                    trace_id=pending.internal, error=error,
                )
        elif status == STATUS_OVERLOADED and overload is not None:
            self._report.shed[overload.reason] = (
                self._report.shed.get(overload.reason, 0) + 1
            )
            self.telemetry.inc("serve.shed")
            self.telemetry.inc(f"serve.shed.{overload.reason}")
            if self.tracer.enabled and pending.ctx is not None:
                self.tracer.event(
                    pending.ctx, "shed", reason=overload.reason
                )
            self._note_shed(pending.request, overload.reason)
        self._close_ledger(pending, status, now)
        self._close_trace(pending, status, latency_ms)
        self._slo_record(pending.request.tenant, None, failed=True)
        pending.future.set_result(
            QueryResponse(
                name=pending.request.name,
                tenant=pending.request.tenant,
                status=status,
                latency_ms=latency_ms,
                overload=overload,
                error=error,
                served_by=list(pending.served_by),
                trace_id=pending.internal,
            )
        )

    def _finish(self, pending: _PendingRequest) -> QueryResponse:
        now = self.clock()
        latency_ms = (now - pending.submitted_at) * 1000.0
        late = pending.deadline_at is not None and now > pending.deadline_at
        workflow = pending.request.workflow
        result = ResultSet(
            {
                name: pending.tables[name]
                for name in workflow.names
                if name in pending.tables
            }
        )
        response = QueryResponse(
            name=pending.request.name,
            tenant=pending.request.tenant,
            status=STATUS_OK,
            result=result,
            latency_ms=latency_ms,
            group_queries=list(pending.group_queries),
            late=late,
            served_by=list(pending.served_by),
            trace_id=pending.internal,
        )
        self._report.completed += 1
        if late:
            self._report.late += 1
        self._latencies_ms.append(latency_ms)
        self.telemetry.inc("serve.completed")
        self.telemetry.mark("serve.completion_rate")
        self.telemetry.observe("serve.latency_ms", latency_ms)
        self._close_ledger(pending, STATUS_OK, now)
        self._close_trace(pending, STATUS_OK, latency_ms)
        self._slo_record(pending.request.tenant, latency_ms, failed=late)
        if not pending.future.done():
            pending.future.set_result(response)
        return response

    # -- drain ------------------------------------------------------------

    # -- appends ----------------------------------------------------------

    async def append(self, delta: Sequence[Record]) -> Optional[AppendReport]:
        """Install an append partition, patching live cache entries.

        The daemon quiesces first: new submissions wait at the append
        gate, held groups are force-dispatched, and the queue and
        workers run dry -- so no job ever runs over mixed data or
        stores results under a stale fingerprint.  Then the incremental
        maintainer patches every cached catalog measure forward (old
        fingerprint to new), the records and the execution input are
        swapped to the grown dataset, the plan memo is cleared, and the
        gate reopens.
        Returns the maintenance report, or ``None`` when no cache is
        attached or the delta is empty (the data still grows; there is
        just nothing to patch).
        """
        await self.start()
        delta = list(delta)
        if not delta:
            return None
        self._append_gate.clear()
        try:
            # Anything already admitted runs over the old data and
            # stores under old-fingerprint keys -- which is only
            # correct if it finishes before the data changes.
            self._dispatch_due(flush=True)
            while (
                len(self.queue)
                or self._inflight
                or (self.admission is not None and self.admission.held)
            ):
                self._work_available.set()
                self._idle.clear()
                try:
                    await asyncio.wait_for(self._idle.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    self._dispatch_due(flush=True)

            report: Optional[AppendReport] = None
            if self.cache is not None and self._hasher is not None:
                old_fingerprint = self.fingerprint
                history = [dict(p) for p in self._partitions]
                self._hasher.update(delta)
                new_fingerprint = self._hasher.fingerprint()
                maintainer = IncrementalMaintainer(
                    self.cache, self.schema, telemetry=self.telemetry
                )
                report = await asyncio.to_thread(
                    maintainer.apply,
                    list(self.catalog.values()),
                    self.records,
                    delta,
                    old_fingerprint,
                    new_fingerprint,
                    history,
                )
                self._partitions.append(
                    {"digest": report.partition, "n_records": len(delta)}
                )
                self.fingerprint = new_fingerprint

            self.records.extend(delta)
            self._execution.load(self.records)
            # Every plan was priced against the old record count.
            self.admission.set_record_count(len(self.records))
            self._report.appends += 1
            self._report.appended_records += len(delta)
            self.telemetry.inc("serve.appends")
            self.telemetry.set_gauge(
                "serve.records", float(len(self.records))
            )
            logger.info(
                "serve: appended %d records (now %d); %s",
                len(delta),
                len(self.records),
                report.summary().replace("\n", " ")
                if report is not None
                else "no cache attached",
            )
            return report
        finally:
            self._append_gate.set()

    async def drain(self) -> ServeReport:
        """Graceful shutdown: finish everything in flight, then stop.

        New submissions shed with ``reason="draining"`` from the moment
        this is called.  Held groups are dispatched immediately, the
        queue and workers run dry, the cache is persisted (directory
        caches already are; ``spill`` handles memory caches via
        :meth:`MeasureCache.spill_to` when a spill directory was
        attached), and the final report is returned.
        """
        if self._drained:
            return self.report()
        self._draining = True
        await self.start()
        self._dispatch_due(flush=True)
        while len(self.queue) or self._inflight:
            self._work_available.set()
            self._idle.clear()
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                continue
        self._drained = True
        if self._dispatcher_task is not None:
            self._dispatcher_task.cancel()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(
            *self._worker_tasks,
            *( [self._dispatcher_task] if self._dispatcher_task else [] ),
            return_exceptions=True,
        )
        self._worker_tasks = []
        self._dispatcher_task = None
        logger.info("serve: drained (%s)", self.report().summary())
        return self.report()

    def report(self) -> ServeReport:
        """The current serving post-mortem (final after :meth:`drain`)."""
        report = self._report
        report.latency_ms = latency_percentiles(self._latencies_ms)
        if self.admission is not None:
            report.admission = self.admission.stats.to_dict()
        report.queue = {
            "max_depth": self.queue.max_depth,
            "peak_depth": self.queue.peak_depth,
            "rejected": self.queue.rejected,
        }
        report.quotas = self.quotas.to_dict()
        if self.cache is not None:
            report.cache = self.cache.stats.to_dict()
        report.drained = self._drained
        return report


def serve_arrivals(
    service: QueryService,
    arrivals: Sequence,
    speed: float = 1.0,
    drain: bool = True,
    install_signals: bool = False,
) -> tuple[list[QueryResponse], ServeReport]:
    """Replay a loadgen trace against *service*; returns all responses.

    Arrivals are submitted open-loop at their trace offsets scaled by
    *speed* (``speed=0`` submits as fast as possible).  Responses come
    back in arrival order.  The synchronous wrapper owns the event
    loop, which is what tests and ``tools/serve_smoke.py`` want.
    *install_signals* hooks SIGTERM/SIGINT to a graceful drain (the
    ``repro serve`` entry point) -- a signal mid-replay sheds the rest
    of the trace with ``reason="draining"`` while in-flight groups
    finish.
    """

    async def _run() -> tuple[list[QueryResponse], ServeReport]:
        await service.start()
        if install_signals:
            service.install_signal_handlers()
        started = service.clock()
        tasks: list[asyncio.Task] = []
        for arrival in arrivals:
            if speed > 0:
                offset = arrival.at / speed
                delay = offset - (service.clock() - started)
                if delay > 0:
                    await asyncio.sleep(delay)
            workflow = service.catalog.get(arrival.query)
            if workflow is None:
                raise KeyError(
                    f"arrival references unknown query {arrival.query!r}"
                )
            request = QueryRequest(
                name=arrival.query,
                workflow=workflow,
                tenant=arrival.tenant,
                deadline_ms=arrival.deadline_ms,
                priority=arrival.priority,
            )
            tasks.append(asyncio.create_task(service.submit(request)))
        responses = list(await asyncio.gather(*tasks))
        report = (await service.drain()) if drain else service.report()
        return responses, report

    return asyncio.run(_run())
