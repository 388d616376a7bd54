"""The batch planner: cache pruning + share-group formation.

Given N parsed queries over one dataset, :class:`BatchPlanner` produces
a :class:`BatchPlan` in two stages:

1. **Cache pruning.**  Each query splits into weakly connected
   components, and each component is classified against the measure
   cache *before* any key derivation: ``cache`` (every measure's table
   is already materialized for this dataset fingerprint -- no job at
   all), ``derive`` (every basic measure is cached and the composites
   can be recomputed centrally from those exact tables -- no shuffle),
   or ``execute`` (at least one basic measure must be computed from raw
   records).  Only ``execute`` components reach the optimizer.

2. **Share-group formation.**  The surviving components become
   :class:`~repro.serving.groups.BatchUnit`\\ s (measure names prefixed
   by their query) and :func:`~repro.serving.groups.form_share_groups`
   partitions them into share groups under the Formula 2/4 cost model.
   Each group runs as ONE map/shuffle/reduce.

The resulting plan carries the full decision trail (dispositions and
every considered merge) for ``repro explain --batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.cube.records import Record, Schema
from repro.local.measure_table import MeasureTable
from repro.mapreduce.dfs import DistributedFile
from repro.optimizer.optimizer import Optimizer
from repro.query.measures import WorkflowError
from repro.query.workflow import Workflow, connected_components
from repro.serving.cache import MeasureCache
from repro.serving.groups import (
    QUERY_SEPARATOR,
    BatchDecision,
    BatchUnit,
    ShareGroup,
    form_share_groups,
    prefix_workflow,
)
from repro.serving.signature import cache_key, dataset_fingerprint

__all__ = [
    "BatchPlan",
    "BatchPlanner",
    "ComponentPlan",
    "PlannedQuery",
    "check_catalog",
    "classify_component",
]

#: Component dispositions, in decreasing order of luck.
DISPOSITION_CACHE = "cache"
DISPOSITION_DERIVE = "derive"
DISPOSITION_EXECUTE = "execute"


@dataclass
class ComponentPlan:
    """What the batch does with one query component."""

    query: str
    #: The component with its original (unprefixed) measure names.
    workflow: Workflow
    disposition: str
    #: ``measure name -> cache key`` (empty when no cache is attached).
    keys: dict[str, str] = field(default_factory=dict)
    #: The read-only cached tables a ``cache`` component (every
    #: measure) or ``derive`` component (its basics) is answered from,
    #: found by classification's one probe per key.
    tables: dict[str, MeasureTable] = field(default_factory=dict)
    #: The schedulable unit, for ``execute`` components only.
    unit: Optional[BatchUnit] = None
    reason: str = ""

    @property
    def names(self) -> tuple[str, ...]:
        return self.workflow.names

    def describe(self) -> str:
        return (
            f"{self.query}:{list(self.names)} -> {self.disposition}"
            + (f" ({self.reason})" if self.reason else "")
        )


@dataclass
class PlannedQuery:
    """One query of the batch: its workflow and component dispositions."""

    name: str
    workflow: Workflow
    components: list[ComponentPlan]

    @property
    def fully_cached(self) -> bool:
        return all(
            c.disposition == DISPOSITION_CACHE for c in self.components
        )


@dataclass
class BatchPlan:
    """The executable plan for a whole batch of queries."""

    queries: list[PlannedQuery]
    #: Share groups over the ``execute`` components; each runs one job.
    groups: list[ShareGroup]
    #: The formation trail for ``repro explain --batch``.
    decision: BatchDecision
    #: Dataset fingerprint the cache keys are bound to ("" = no cache).
    fingerprint: str
    n_records: int
    num_reducers: int

    def components(self) -> list[ComponentPlan]:
        return [c for q in self.queries for c in q.components]

    def disposition_counts(self) -> dict[str, int]:
        counts = {
            DISPOSITION_CACHE: 0,
            DISPOSITION_DERIVE: 0,
            DISPOSITION_EXECUTE: 0,
        }
        for component in self.components():
            counts[component.disposition] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "num_reducers": self.num_reducers,
            "fingerprint": self.fingerprint,
            "queries": [
                {
                    "name": q.name,
                    "components": [
                        {
                            "measures": list(c.names),
                            "disposition": c.disposition,
                            "reason": c.reason,
                        }
                        for c in q.components
                    ],
                }
                for q in self.queries
            ],
            "groups": [
                {
                    "members": [
                        {"query": query, "measures": measures}
                        for query, measures in group.members()
                    ],
                    "key": repr(group.plan.scheme.key),
                    "predicted_max_load": group.plan.predicted_max_load,
                }
                for group in self.groups
            ],
            "decision": self.decision.to_dict(),
        }

    def describe(self) -> str:
        """The full human-readable plan, used by ``repro explain --batch``."""
        counts = self.disposition_counts()
        lines = [
            f"batch plan: {len(self.queries)} queries, "
            f"{len(self.groups)} shared jobs "
            f"(components: {counts['execute']} execute, "
            f"{counts['derive']} derive, {counts['cache']} cached)",
        ]
        for planned in self.queries:
            for component in planned.components:
                lines.append(f"  {component.describe()}")
        lines.append(self.decision.describe())
        return "\n".join(lines)


def check_catalog(queries: Mapping[str, Workflow]) -> Optional[Schema]:
    """The one schema every query of *queries* is over.

    Raises :class:`WorkflowError` when a query name contains
    :data:`~repro.serving.groups.QUERY_SEPARATOR` (merged workflows
    prefix measure names with it) or when two queries use different
    schemas (queries evaluated together share one dataset).
    """
    schema = None
    for name, workflow in queries.items():
        if QUERY_SEPARATOR in name:
            raise WorkflowError(
                f"query name {name!r} must not contain "
                f"{QUERY_SEPARATOR!r}"
            )
        if schema is None:
            schema = workflow.schema
        elif workflow.schema != schema:
            raise WorkflowError(
                f"query {name!r} uses a different schema; queries "
                "evaluated together must share one dataset"
            )
    return schema


def classify_component(
    cache: Optional[MeasureCache],
    fingerprint: str,
    query: str,
    component: Workflow,
) -> ComponentPlan:
    """Disposition of one query component against the measure cache.

    Probes every measure's cache key once with
    :meth:`MeasureCache.probe` (an absent key counts as a miss) and
    keeps the tables the disposition answers from; they are counted
    as hits when :func:`~repro.serving.executor.load_component` serves
    them.  *query* names the component's owner -- the prefix of its
    :class:`~repro.serving.groups.BatchUnit` if it executes.
    """
    if cache is None:
        return ComponentPlan(
            query, component, DISPOSITION_EXECUTE,
            reason="no cache attached",
        )
    keys: dict[str, str] = {}
    found: dict[str, MeasureTable] = {}
    for measure in component.measures:
        key = keys[measure.name] = cache_key(fingerprint, measure)
        table = cache.probe(key, measure.granularity)
        if table is not None:
            found[measure.name] = table
    if len(found) == len(keys):
        return ComponentPlan(
            query, component, DISPOSITION_CACHE, keys, found,
            reason="all measures cached",
        )
    basics = {m.name for m in component.basic_measures()}
    if (
        basics
        and basics <= found.keys()
        and component.anchored_without_records()
    ):
        return ComponentPlan(
            query, component, DISPOSITION_DERIVE, keys,
            {name: found[name] for name in basics},
            reason="all basic measures cached; composites derivable",
        )
    missing = sorted(keys.keys() - found.keys())
    return ComponentPlan(
        query, component, DISPOSITION_EXECUTE, keys,
        reason=f"uncached: {missing}" if found else "nothing cached",
    )


class BatchPlanner:
    """Plans a batch of queries against one dataset.

    *optimizer* prices candidate keys and merged groups; *cache* (when
    given) is probed by :func:`classify_component` to prune
    already-materialized components before key derivation.
    """

    def __init__(
        self,
        optimizer: Optimizer | None = None,
        cache: MeasureCache | None = None,
    ):
        self.optimizer = optimizer if optimizer is not None else Optimizer()
        self.cache = cache

    def plan(
        self,
        queries: Mapping[str, Workflow],
        data: Sequence[Record] | DistributedFile,
        num_reducers: int,
        fingerprint: str | None = None,
    ) -> BatchPlan:
        """Classify components, form share groups, return the plan.

        *fingerprint* short-circuits the dataset hash for callers that
        already maintain it (the daemon's incrementally-updated
        :class:`~repro.serving.signature.DatasetHasher`, or an append
        flow that just computed it); it must equal
        ``dataset_fingerprint(data, schema)`` or cache keys will miss.
        """
        schema = check_catalog(queries)

        if isinstance(data, DistributedFile):
            n_records = data.num_records
        else:
            data = list(data)
            n_records = len(data)

        if fingerprint is None:
            fingerprint = ""
            if self.cache is not None and schema is not None:
                fingerprint = dataset_fingerprint(data, schema)

        planned: list[PlannedQuery] = []
        units: list[BatchUnit] = []
        pruning_notes: list[str] = []
        for name, workflow in queries.items():
            components: list[ComponentPlan] = []
            for component in connected_components(workflow):
                component_plan = classify_component(
                    self.cache, fingerprint, name, component
                )
                if component_plan.disposition == DISPOSITION_EXECUTE:
                    prefixed = prefix_workflow(
                        component, name + QUERY_SEPARATOR
                    )
                    solo = self.optimizer.plan(
                        prefixed, n_records, num_reducers
                    )
                    component_plan.unit = BatchUnit(name, prefixed, solo)
                    units.append(component_plan.unit)
                else:
                    pruning_notes.append(
                        f"pruned before key derivation: "
                        f"{component_plan.describe()}"
                    )
                components.append(component_plan)
            planned.append(PlannedQuery(name, workflow, components))

        groups, decision = form_share_groups(
            units, self.optimizer, n_records, num_reducers
        )
        decision.notes[:0] = pruning_notes
        return BatchPlan(
            queries=planned,
            groups=groups,
            decision=decision,
            fingerprint=fingerprint,
            n_records=n_records,
            num_reducers=num_reducers,
        )
