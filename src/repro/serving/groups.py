"""Share-group formation: which queries can ride one shuffle.

Theorems 1-2 compose across queries: ``opCombine`` over several
workflows' minimal feasible keys yields one key feasible for *all* of
them, so a single overlapping redistribution can serve every member --
each record is shipped once for the whole group instead of once per
query.  Whether that is *worth it* is a cost question: the combined key
is generally coarser (or carries a wider range annotation), so the
Formula 2/4 model arbitrates by comparing the merged plan's predicted
max reducer load against the sum of the members' separate loads (loads
add when jobs share the same reducers, exactly as
:attr:`~repro.optimizer.optimizer.QueryPlan.predicted_max_load` sums
over components).

:func:`form_share_groups` runs a greedy agglomerative merge over the
batch's units -- one unit per (query, connected component) -- always
taking the pair whose merge reduces the predicted load the most, until
no merge helps.  Every pair ever considered is recorded in a
:class:`BatchDecision` with its loads and verdict, which is what
``repro explain --batch`` renders: why queries did or did not share.

A group computes each distinct measure once.  :func:`merge` builds a
group's workflow with one measure per
:attr:`~repro.query.measures.Measure.signature`: the same dashboard
arriving from several tenants runs once, and every member is handed
its answers by signature.  Equal signatures compute equal tables --
the premise the measure cache already serves hits on -- and the plan
does not change either: a repeated measure adds no key to
``opCombine`` and no record to the Formula 2/4 load.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.optimizer.optimizer import Optimizer, Plan
from repro.query.workflow import Workflow

__all__ = [
    "BatchDecision",
    "BatchUnit",
    "MergeDecision",
    "ShareGroup",
    "form_share_groups",
    "merge",
    "plan_merge",
    "prefix_workflow",
]

#: Separator between the query name and the measure name in a merged
#: workflow (query names must not contain it).
QUERY_SEPARATOR = "/"


def prefix_workflow(workflow: Workflow, prefix: str) -> Workflow:
    """A copy of *workflow* with every measure renamed ``prefix + name``.

    Rebuilds the measure DAG in topological order so edges point at the
    renamed sources; structure, granularities and functions are
    untouched.  Used to merge several queries' measures into one
    workflow without name collisions.
    """
    renamed: dict[str, object] = {}
    for measure in workflow.topological_order():
        inputs = tuple(
            dataclasses.replace(edge, source=renamed[edge.source.name])
            for edge in measure.inputs
        )
        renamed[measure.name] = dataclasses.replace(
            measure, name=prefix + measure.name, inputs=inputs
        )
    return Workflow(
        workflow.schema, [renamed[m.name] for m in workflow.measures]
    )


def merge(first: Workflow, second: Workflow) -> Workflow:
    """*first* plus the measures of *second* whose signature it lacks.

    A measure of *second* whose signature *first* (or an earlier
    measure of *second*) already has is left out: the measure holding
    that signature first computes it for both.  A kept composite that
    reads a left-out measure has its edge rewired to that measure, the
    way :func:`prefix_workflow` rebuilds edges.  Kept measures keep
    their names and their order.  When *second* keeps no measure the
    result is *first* itself.
    """
    canonical: dict[str, object] = {}
    for measure in first.measures:
        canonical.setdefault(measure.signature, measure)
    if all(measure.signature in canonical for measure in second.measures):
        return first
    kept: dict[str, object] = {}
    for measure in second.topological_order():
        if measure.signature in canonical:
            continue
        sources = [canonical[e.source.signature] for e in measure.inputs]
        if any(
            source is not edge.source
            for source, edge in zip(sources, measure.inputs)
        ):
            measure = dataclasses.replace(
                measure,
                inputs=tuple(
                    dataclasses.replace(edge, source=source)
                    for source, edge in zip(sources, measure.inputs)
                ),
            )
        canonical[measure.signature] = kept[measure.name] = measure
    return Workflow(
        first.schema,
        first.measures
        + tuple(kept[m.name] for m in second.measures if m.name in kept),
    )


def plan_merge(
    optimizer: Optimizer,
    first: Workflow,
    second: Workflow,
    n_records: int,
    num_reducers: int,
) -> tuple[Optional[Workflow], Optional[Plan], str]:
    """Price co-evaluating *first* and *second* under one scheme.

    Returns ``(merge(first, second), its plan, "")``, or ``(None, None,
    error)`` when the two cannot share a shuffle (no common feasible
    key, or clashing measure names).
    """
    try:
        workflow = merge(first, second)
        return (
            workflow,
            optimizer.plan(workflow, n_records, num_reducers),
            "",
        )
    except ValueError as exc:  # DistributionError, WorkflowError
        return None, None, str(exc)


@dataclass
class BatchUnit:
    """One schedulable unit: a single query's connected component.

    Measure names are already prefixed with ``query + "/"`` so units
    from different queries can merge into one workflow.
    """

    query: str
    component: Workflow
    #: The unit's own best plan (what it would cost unshared).
    plan: Plan

    @property
    def measures(self) -> list[str]:
        """Original (unprefixed) measure names of this unit."""
        prefix = self.query + QUERY_SEPARATOR
        return [name[len(prefix):] for name in self.component.names]

    def describe(self) -> str:
        return f"{self.query}:{self.measures}"


@dataclass
class ShareGroup:
    """A set of units co-evaluated under one distribution scheme."""

    units: list[BatchUnit]
    #: All member measures as one (possibly multi-component) workflow.
    workflow: Workflow
    #: The shared plan: one key, one clustering factor, one shuffle.
    plan: Plan

    @property
    def queries(self) -> list[str]:
        """Member query names, deduplicated, in first-seen order."""
        seen: list[str] = []
        for unit in self.units:
            if unit.query not in seen:
                seen.append(unit.query)
        return seen

    @property
    def shared_measures(self) -> int:
        """Member measures answered from another measure's table: the
        ones :func:`merge` left out of :attr:`workflow`."""
        return sum(len(unit.component) for unit in self.units) - len(
            self.workflow
        )

    def members(self) -> list[tuple[str, list[str]]]:
        """``(query, [measure, ...])`` pairs, one per unit."""
        return [(unit.query, unit.measures) for unit in self.units]

    def describe(self) -> str:
        names = ", ".join(unit.describe() for unit in self.units)
        return f"[{names}] under {self.plan.describe()}"


@dataclass
class MergeDecision:
    """One considered merge of two groups, and its verdict."""

    round: int
    left: list[str]
    right: list[str]
    #: Sum of the two groups' separate predicted max loads.
    separate_load: float
    #: The merged plan's predicted max load (``None`` if infeasible).
    merged_load: Optional[float]
    merged_key: Optional[str]
    #: Whether this merge was the one applied in its round.
    merged: bool
    reason: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class BatchDecision:
    """The full trail of share-group formation for one batch."""

    considered: list[MergeDecision] = field(default_factory=list)
    #: Final groups: ``(member descriptions, plan description)``.
    groups: list[tuple[list[str], str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "considered": [d.to_dict() for d in self.considered],
            "groups": [
                {"members": members, "plan": plan}
                for members, plan in self.groups
            ],
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        """The human rendering behind ``repro explain --batch``."""
        lines = ["share-group formation:"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        current_round = None
        for decision in self.considered:
            if decision.round != current_round:
                current_round = decision.round
                lines.append(f"  round {current_round}:")
            left = "+".join(decision.left)
            right = "+".join(decision.right)
            verdict = "MERGED" if decision.merged else "kept apart"
            lines.append(
                f"    {left}  x  {right}: {verdict} -- {decision.reason}"
            )
        lines.append(f"final groups ({len(self.groups)}):")
        for index, (members, plan) in enumerate(self.groups):
            lines.append(f"  group {index}: {', '.join(members)}")
            lines.append(f"    {plan}")
        return "\n".join(lines)


def form_share_groups(
    units: list[BatchUnit],
    optimizer: Optimizer,
    n_records: int,
    num_reducers: int,
) -> tuple[list[ShareGroup], BatchDecision]:
    """Partition *units* into share groups by greedy load-model merging.

    Starts with one group per unit (each under its own solo plan) and
    repeatedly merges the pair with the largest predicted-load saving;
    a pair merges only when the shared plan's predicted max load is
    strictly below the sum of the separate loads.  Feasibility failures
    (e.g. no common annotated key) are recorded and treated as
    non-merges, so the result is always a valid partition.
    """
    decision = BatchDecision()
    groups = [
        ShareGroup([unit], unit.component, unit.plan) for unit in units
    ]
    if len(groups) <= 1:
        if not groups:
            decision.notes.append("empty batch: nothing to group")
        decision.groups = [
            ([u.describe() for u in g.units], g.plan.describe())
            for g in groups
        ]
        return groups, decision

    merged_cache: dict[frozenset, tuple] = {}

    def plan_merged(a: ShareGroup, b: ShareGroup):
        """(workflow, plan, error) for the union of two groups."""
        ids = frozenset(
            id(unit) for group in (a, b) for unit in group.units
        )
        if ids not in merged_cache:
            merged_cache[ids] = plan_merge(
                optimizer, a.workflow, b.workflow, n_records, num_reducers
            )
        return merged_cache[ids]

    round_number = 0
    while len(groups) > 1:
        round_number += 1
        best = None  # (gain, i, j, workflow, plan)
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                a, b = groups[i], groups[j]
                separate = (
                    a.plan.predicted_max_load + b.plan.predicted_max_load
                )
                workflow, plan, error = plan_merged(a, b)
                left = [u.describe() for u in a.units]
                right = [u.describe() for u in b.units]
                if plan is None:
                    decision.considered.append(
                        MergeDecision(
                            round_number, left, right, separate, None,
                            None, False, f"infeasible to share: {error}",
                        )
                    )
                    continue
                gain = separate - plan.predicted_max_load
                if gain > 0:
                    reason = (
                        f"shared load {plan.predicted_max_load:.0f} < "
                        f"separate {separate:.0f} "
                        f"(saves {gain:.0f} records on the max reducer)"
                    )
                else:
                    reason = (
                        f"shared load {plan.predicted_max_load:.0f} >= "
                        f"separate {separate:.0f}: sharing key "
                        f"{plan.scheme.key!r} would cost more than two "
                        "shuffles"
                    )
                decision.considered.append(
                    MergeDecision(
                        round_number, left, right, separate,
                        plan.predicted_max_load, repr(plan.scheme.key),
                        False, reason,
                    )
                )
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, i, j, workflow, plan)
        if best is None:
            break
        _gain, i, j, workflow, plan = best
        merged = ShareGroup(
            groups[i].units + groups[j].units, workflow, plan
        )
        # Flag the applied merge in this round's trail.
        for entry in reversed(decision.considered):
            if entry.round != round_number:
                break
            if (
                entry.left == [u.describe() for u in groups[i].units]
                and entry.right == [u.describe() for u in groups[j].units]
            ):
                entry.merged = True
                break
        groups[i] = merged
        del groups[j]

    decision.groups = [
        ([u.describe() for u in g.units], g.plan.describe())
        for g in groups
    ]
    return groups, decision
