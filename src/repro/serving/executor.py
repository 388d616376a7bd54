"""The shared batch executor: one job per share group, cache in front.

:class:`BatchEvaluator` runs a :class:`~repro.serving.planner.BatchPlan`
over one dataset:

* ``cache`` components load their tables straight from the measure
  cache -- no job, no shuffle;
* ``derive`` components recompute composites centrally from cached
  basic tables (the exact tables a parallel run would produce, so the
  derivation is bit-identical) -- no shuffle;
* each share group of ``execute`` components runs as ONE map/shuffle/
  reduce over the merged workflow, which holds each distinct measure
  once (:func:`~repro.serving.groups.merge`); the merged output is then
  split back into per-query tables, each member's measures looked up
  by signature.

Those steps are the module functions :func:`load_component`,
:func:`split_by_query` and :func:`store_component`, which ``repro
serve`` (:class:`~repro.serving.daemon.QueryService`) calls as well:
both paths load, derive, split and store one way.  Classification
probes each cache key once and the plan carries the read-only tables it
found, so loading reads nothing from the cache again and an entry
evicted after classification still answers from the table it held.

Per-query answers are bit-identical to standalone runs: a share group
evaluates under a key feasible for every member (Theorems 1-2), each
block evaluates over the same globally-ordered record subsequence a
solo run would see, and filtering happens per measure region -- the
shared job changes *where* work happens, never its inputs or fold
order.

Fault semantics: a group's cache entries are stored immediately after
that group succeeds, and a failing group is retried ``group_retries``
times in-line; if it still fails the remaining groups run anyway and a
:class:`BatchExecutionError` carrying the partial result is raised.
Completed groups' cache entries are never invalidated by another
group's failure, so re-running the batch against a warm cache resumes
where it left off.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.cube.records import Record
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.sortscan import BlockEvaluator
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.dfs import DistributedFile
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.optimizer import QueryPlan
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.parallel.report import ParallelResult
from repro.query.workflow import Workflow
from repro.serving.cache import CacheStats, MeasureCache
from repro.serving.groups import QUERY_SEPARATOR, ShareGroup
from repro.serving.planner import (
    DISPOSITION_CACHE,
    DISPOSITION_DERIVE,
    DISPOSITION_EXECUTE,
    BatchPlan,
    BatchPlanner,
    ComponentPlan,
)

__all__ = [
    "BatchEvaluator",
    "BatchExecutionError",
    "BatchResult",
    "GroupOutcome",
    "load_component",
    "split_by_query",
    "store_component",
]

logger = logging.getLogger(__name__)


def load_component(
    cache: MeasureCache,
    component: ComponentPlan,
    tracer=NULL_TRACER,
) -> dict[str, MeasureTable]:
    """The tables of a ``cache`` or ``derive`` component, with no job.

    Serves the read-only tables classification found
    (:attr:`ComponentPlan.tables`) and counts each as a cache hit.  A
    ``cache`` component holds every measure.  A ``derive`` component
    holds its basics, and the composites are recomputed centrally:
    cached basics equal the exact centralized tables (the parallel
    invariant) and composite operators are deterministic functions of
    their source tables, so derivation is bit-identical to a full run.
    The derived composites are stored back.
    """
    loaded = component.tables
    cache.record_hits(len(loaded))
    if component.disposition != DISPOSITION_DERIVE:
        return loaded
    workflow = component.workflow
    result = BlockEvaluator(workflow, tracer=tracer).evaluate(
        basic_tables=loaded
    )
    for measure in workflow.composite_measures():
        cache.put(
            component.keys[measure.name],
            result.tables[measure.name],
            measure_name=component.query + QUERY_SEPARATOR + measure.name,
        )
    return dict(result.tables)


def split_by_query(
    group: ShareGroup, result: ResultSet
) -> dict[str, dict[str, MeasureTable]]:
    """*group*'s merged ``query/measure`` result, regrouped per member
    query under the original measure names.

    A measure the group's workflow holds gets its own table.  One that
    :func:`~repro.serving.groups.merge` left out as a duplicate gets a
    copy of the table of the measure with its signature, so no two
    members share a table object.
    """
    computed: dict[str, MeasureTable] = {}
    for measure in group.workflow.measures:
        computed.setdefault(measure.signature, result[measure.name])
    by_query: dict[str, dict[str, MeasureTable]] = {}
    for unit in group.units:
        tables = by_query.setdefault(unit.query, {})
        cut = len(unit.query) + len(QUERY_SEPARATOR)
        for measure in unit.component.measures:
            table = result.tables.get(measure.name)
            if table is None:
                table = computed[measure.signature]
                table = MeasureTable(table.granularity, table.values)
            tables[measure.name[cut:]] = table
    return by_query


def store_component(
    cache: Optional[MeasureCache],
    component: ComponentPlan,
    tables: Mapping[str, MeasureTable],
) -> None:
    """Store an executed component's tables under its cache keys."""
    if cache is None or not component.keys:
        return
    for measure in component.workflow.measures:
        cache.put(
            component.keys[measure.name],
            tables[measure.name],
            measure_name=component.query + QUERY_SEPARATOR + measure.name,
        )


class BatchExecutionError(RuntimeError):
    """A share group kept failing after its retries.

    Carries the :class:`BatchResult` of everything that *did* complete
    (``partial``); completed groups' cache entries are already stored,
    so a re-run against the same cache resumes from them.
    """

    def __init__(self, message: str, partial: "BatchResult | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass
class GroupOutcome:
    """One share group's execution record."""

    group: ShareGroup
    #: The shared job's result (``None`` when the group failed).
    result: Optional[ParallelResult]
    attempts: int = 1
    error: str = ""

    @property
    def succeeded(self) -> bool:
        return self.result is not None


@dataclass
class BatchResult:
    """Everything one batch run produced."""

    #: Per-query answers under their original measure names.
    results: dict[str, ResultSet]
    plan: BatchPlan
    groups: list[GroupOutcome] = field(default_factory=list)
    #: Cache traffic of this run (hits/misses/stores), planning
    #: included when the run made its own plan, or ``None``.
    cache_stats: Optional[CacheStats] = None
    #: Queries answered without any job (all components cached/derived).
    jobless_queries: list[str] = field(default_factory=list)

    @property
    def jobs(self) -> list[ParallelResult]:
        return [o.result for o in self.groups if o.result is not None]

    @property
    def resumed_components(self) -> int:
        """Components answered from the cache instead of re-executing.

        After a mid-batch failure, a warm re-run classifies every
        completed group's components as ``cache``/``derive`` -- this is
        the count of work units the resume skipped.
        """
        return sum(
            1
            for planned in self.plan.queries
            for component in planned.components
            if component.disposition in (
                DISPOSITION_CACHE, DISPOSITION_DERIVE
            )
        )

    @property
    def total_response_time(self) -> float:
        return sum(job.job.response_time for job in self.jobs)

    @property
    def total_shuffle_bytes(self) -> int:
        return sum(job.job.counters.shuffle_bytes for job in self.jobs)

    def describe(self) -> str:
        lines = [
            f"batch: {len(self.results)} queries answered by "
            f"{len(self.jobs)} shared jobs "
            f"(response time {self.total_response_time:.2f}, "
            f"shuffle bytes {self.total_shuffle_bytes})",
        ]
        for index, outcome in enumerate(self.groups):
            status = (
                f"ok after {outcome.attempts} attempt(s)"
                if outcome.succeeded
                else f"FAILED: {outcome.error}"
            )
            lines.append(
                f"  group {index} "
                f"[{', '.join(outcome.group.queries)}]: {status}"
            )
        if self.cache_stats is not None:
            lines.append(f"  cache: {self.cache_stats.to_dict()}")
        return "\n".join(lines)


class BatchEvaluator:
    """Co-evaluates a batch of queries on one simulated cluster.

    Wraps a :class:`~repro.parallel.executor.ParallelEvaluator` for the
    shared jobs.  *cache* enables the cross-run measure cache;
    *group_retries* bounds in-line retries per failing group (on top of
    the engine's own task-level fault tolerance).  *tracer* records one
    trace per query -- a root span named after it -- with each share
    group's ``execute`` span (linked to the other members' roots) and
    its ``batch-group`` attempts nested below.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExecutionConfig | None = None,
        tracer=None,
        cache: MeasureCache | None = None,
        group_retries: int = 1,
        telemetry=None,
    ):
        config = config or ExecutionConfig()
        if config.early_aggregation:
            raise ValueError(
                "batch evaluation requires early_aggregation=False: "
                "partial-state merging can reorder float folds, which "
                "would break the bit-identical-to-standalone guarantee"
            )
        self.cluster = cluster
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.inner = ParallelEvaluator(
            cluster, config, tracer=tracer, telemetry=telemetry,
        )
        self.cache = cache
        if cache is not None:
            cache.attach_telemetry(self.telemetry)
        self.group_retries = group_retries

    # -- planning ---------------------------------------------------------

    def plan(
        self,
        queries: Mapping[str, Workflow],
        data: Sequence[Record] | DistributedFile,
    ) -> BatchPlan:
        """Plan the batch without running it (``repro explain --batch``)."""
        num_reducers = self.config.num_reducers or self.cluster.reduce_slots
        planner = BatchPlanner(self.inner.optimizer, self.cache)
        return planner.plan(queries, data, num_reducers)

    # -- execution --------------------------------------------------------

    def evaluate(
        self,
        queries: Mapping[str, Workflow],
        data: Sequence[Record] | DistributedFile,
        plan: BatchPlan | None = None,
    ) -> BatchResult:
        """Run the batch; per-query answers match their standalone runs.

        Raises :class:`BatchExecutionError` (with the partial result
        attached) if any share group still fails after its retries; all
        other groups run to completion first.
        """
        contexts: dict = {}
        trace_started = 0.0
        if self.tracer.enabled:
            # Per-query trace roots, the batch-mode mirror of the
            # daemon's trace plane; share groups execute under them.
            trace_started = self.tracer.now()
            contexts = {name: self.tracer.mint(name) for name in queries}
        with self.tracer.span("evaluate-batch", queries=len(queries)):
            input_file = self._resolve_input(data)
            # Planning probes the cache, so its misses and corrupt
            # entries are this run's traffic too.
            stats_before = (
                self.cache.stats.snapshot()
                if self.cache is not None
                else None
            )
            if plan is None:
                plan = self.plan(queries, input_file)

            tables: dict[str, dict[str, MeasureTable]] = {
                name: {} for name in queries
            }
            jobless: list[str] = []

            # Cached / derived components first: no jobs, no shuffle.
            for planned in plan.queries:
                for component in planned.components:
                    if component.disposition == DISPOSITION_EXECUTE:
                        continue
                    tables[component.query].update(
                        load_component(self.cache, component, self.tracer)
                    )
                if planned.fully_cached and planned.components:
                    jobless.append(planned.name)

            unit_components = {
                id(component.unit): component
                for planned in plan.queries
                for component in planned.components
                if component.unit is not None
            }
            self.telemetry.phase("batch-groups", 0, len(plan.groups))
            outcomes = []
            for index, group in enumerate(plan.groups):
                outcomes.append(
                    self._run_group(
                        index, group, input_file, tables,
                        unit_components, contexts,
                    )
                )
                self.telemetry.phase(
                    "batch-groups", index + 1, len(plan.groups)
                )

            failures = [o for o in outcomes if not o.succeeded]
            results = {
                name: ResultSet(
                    {
                        measure: tables[name][measure]
                        for measure in workflow.names
                        if measure in tables[name]
                    }
                )
                for name, workflow in queries.items()
            }
            batch_result = BatchResult(
                results=results,
                plan=plan,
                groups=outcomes,
                cache_stats=self._stats_delta(stats_before),
                jobless_queries=jobless,
            )
            if contexts:
                failed = {
                    query
                    for outcome in failures
                    for query in outcome.group.queries
                }
                end = self.tracer.now()
                for name, ctx in contexts.items():
                    self.tracer.close(
                        ctx, name, trace_started, end,
                        status="error" if name in failed else "ok",
                        jobless=name in jobless,
                    )
        if failures:
            names = [
                ", ".join(outcome.group.queries) for outcome in failures
            ]
            raise BatchExecutionError(
                f"{len(failures)} share group(s) failed after "
                f"{self.group_retries + 1} attempt(s): "
                f"[{'; '.join(names)}] -- completed groups' results and "
                "cache entries are preserved; re-run to resume",
                partial=batch_result,
            )
        return batch_result

    # -- shared jobs ------------------------------------------------------

    def _run_group(
        self,
        index: int,
        group: ShareGroup,
        input_file: DistributedFile,
        tables: dict[str, dict[str, MeasureTable]],
        unit_components: dict[int, ComponentPlan],
        contexts: dict | None = None,
    ) -> GroupOutcome:
        # One execution span per share group: it lives in the primary
        # member's trace and links to the other members' roots, so
        # every member's reconstructed tree includes the shared job.
        member_ctxs = [
            (contexts or {})[query]
            for query in group.queries
            if query in (contexts or {})
        ]
        exec_ctx = None
        exec_start = 0.0
        if member_ctxs:
            exec_ctx = self.tracer.fork(
                member_ctxs[0],
                links=[
                    (ctx.trace_id, ctx.span_id)
                    for ctx in member_ctxs[1:]
                ],
            )
            exec_start = self.tracer.now()
        attempts = 0
        last_error = ""
        while attempts <= self.group_retries:
            attempts += 1
            try:
                with self.tracer.span(
                    "batch-group", parent=exec_ctx,
                    index=index, attempt=attempts,
                    queries=",".join(group.queries),
                ):
                    outcome = self.inner.evaluate(
                        group.workflow,
                        input_file,
                        plan=QueryPlan([(group.workflow, group.plan)]),
                    )
            except Exception as exc:  # noqa: BLE001 - group-level retry
                last_error = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "share group %d attempt %d failed: %s",
                    index, attempts, last_error,
                )
                if exec_ctx is not None:
                    self.tracer.event(
                        exec_ctx, "group-retry",
                        attempt=attempts, error=last_error,
                    )
                continue
            self._split_group_result(
                group, outcome, tables, unit_components
            )
            if exec_ctx is not None:
                self.tracer.close(
                    exec_ctx, "execute", exec_start,
                    self.tracer.now(),
                    queries=",".join(group.queries),
                    group=index, attempts=attempts,
                )
            return GroupOutcome(group, outcome, attempts)
        if exec_ctx is not None:
            self.tracer.close(
                exec_ctx, "execute", exec_start,
                self.tracer.now(),
                queries=",".join(group.queries),
                group=index, attempts=attempts, error=last_error,
            )
        return GroupOutcome(group, None, attempts, error=last_error)

    def _split_group_result(
        self,
        group: ShareGroup,
        outcome: ParallelResult,
        tables: dict[str, dict[str, MeasureTable]],
        unit_components: dict[int, ComponentPlan],
    ) -> None:
        """Route merged ``query/measure`` tables back to their queries."""
        counters = outcome.job.counters
        counters.extra["batch.shared_measures"] += group.shared_measures
        for query, split in split_by_query(group, outcome.result).items():
            tables[query].update(split)
            counters.extra[f"batch.rows.{query}"] += sum(
                len(table) for table in split.values()
            )
            counters.extra[f"batch.measures.{query}"] += len(split)
        # Store this group's entries NOW: a later group's failure must
        # not cost us what already completed.
        for unit in group.units:
            component = unit_components.get(id(unit))
            if component is not None:
                store_component(self.cache, component, tables[unit.query])

    # -- helpers ----------------------------------------------------------

    def _resolve_input(
        self, data: Sequence[Record] | DistributedFile
    ) -> DistributedFile:
        if isinstance(data, DistributedFile):
            return data
        return self.cluster.dfs.write("batch-input", list(data))

    def _stats_delta(
        self, before: CacheStats | None
    ) -> Optional[CacheStats]:
        if self.cache is None or before is None:
            return None
        now = self.cache.stats
        return CacheStats(
            hits=now.hits - before.hits,
            misses=now.misses - before.misses,
            stores=now.stores - before.stores,
            corrupt=now.corrupt - before.corrupt,
            store_errors=now.store_errors - before.store_errors,
            evictions=now.evictions - before.evictions,
        )
