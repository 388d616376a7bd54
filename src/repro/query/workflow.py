"""Aggregation workflows: the DAG of measures forming one composite query.

A :class:`Workflow` is the paper's "aggregation workflow" (Figure 1): a
directed acyclic graph whose nodes are measures and whose edges carry the
four relationship types.  All measures are query outputs ("the results of
all queries are required, not just the final measure").
"""

from __future__ import annotations

from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Iterator, Sequence

from repro.cube.records import Schema
from repro.query.functions import AggregateFunction
from repro.query.measures import (
    Measure,
    Relationship,
    SiblingWindow,
    WorkflowError,
)


class Workflow:
    """An immutable, validated DAG of measures over one schema."""

    def __init__(self, schema: Schema, measures: Sequence[Measure]):
        self.schema = schema
        self.measures = tuple(measures)
        self._by_name = {measure.name: measure for measure in self.measures}
        if len(self._by_name) != len(self.measures):
            names = [measure.name for measure in self.measures]
            raise WorkflowError(f"duplicate measure names: {names}")
        self._validate_membership()
        self._order = self._topological_order()

    # -- construction-time validation ---------------------------------------

    def _validate_membership(self):
        for measure in self.measures:
            if measure.schema != self.schema:
                raise WorkflowError(
                    f"measure {measure.name!r} uses a different schema"
                )
            for source in measure.source_measures():
                if source.name not in self._by_name:
                    raise WorkflowError(
                        f"measure {measure.name!r} depends on "
                        f"{source.name!r}, which is not part of the workflow"
                    )
                if self._by_name[source.name] is not source:
                    raise WorkflowError(
                        f"measure {measure.name!r} depends on a foreign "
                        f"measure also named {source.name!r}"
                    )

    def _topological_order(self) -> tuple[Measure, ...]:
        sorter: TopologicalSorter = TopologicalSorter()
        for measure in self.measures:
            sorter.add(measure, *measure.source_measures())
        try:
            return tuple(sorter.static_order())
        except CycleError as exc:
            raise WorkflowError(f"workflow contains a cycle: {exc}") from exc

    # -- lookup ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Measure]:
        return iter(self.measures)

    def __len__(self) -> int:
        return len(self.measures)

    def measure(self, name: str) -> Measure:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkflowError(
                f"workflow has no measure {name!r}; measures are "
                f"{sorted(self._by_name)}"
            ) from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(measure.name for measure in self.measures)

    def topological_order(self) -> tuple[Measure, ...]:
        """Measures ordered so every source precedes its dependents."""
        return self._order

    @cached_property
    def shape(self) -> tuple[str, ...]:
        """The name-free structure: the sorted measure signatures.

        Two workflows with equal shapes get equal plans from the
        optimizer at the same record and reducer counts; the shape of
        several workflows' union is the sorted concatenation of theirs.
        """
        return tuple(sorted(measure.signature for measure in self.measures))

    @cached_property
    def components(self) -> tuple["Workflow", ...]:
        """The weakly connected components (see
        :func:`connected_components`), computed once per workflow."""
        parent: dict[str, str] = {name: name for name in self.names}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for measure in self.measures:
            for source in measure.source_measures():
                parent[find(measure.name)] = find(source.name)

        groups: dict[str, list] = {}
        for measure in self.measures:
            groups.setdefault(find(measure.name), []).append(measure)
        return tuple(
            Workflow(self.schema, members) for members in groups.values()
        )

    @cached_property
    def lifted(self) -> tuple["Workflow", tuple[int, ...]]:
        """This workflow over a leading block ordinal, with the attribute
        order its bucket evaluator sorts by, computed once per workflow
        (see :mod:`repro.local.lifting`): every reduce task of every
        evaluation shares them."""
        from repro.local.lifting import lift_workflow, lifted_attribute_order

        return lift_workflow(self), lifted_attribute_order(self)

    # -- structure queries -----------------------------------------------------

    def basic_measures(self) -> tuple[Measure, ...]:
        return tuple(m for m in self.measures if m.is_basic)

    def composite_measures(self) -> tuple[Measure, ...]:
        return tuple(m for m in self.measures if not m.is_basic)

    def has_sibling_edges(self) -> bool:
        """Whether any edge is a sibling (sliding-window) relationship.

        Queries without sibling edges admit non-overlapping distribution
        keys (Section III-B.1); queries with them may need overlap.
        """
        return any(
            edge.relationship is Relationship.SIBLING
            for measure in self.measures
            for edge in measure.inputs
        )

    def sibling_windows(self) -> tuple[SiblingWindow, ...]:
        return tuple(
            edge.window
            for measure in self.measures
            for edge in measure.inputs
            if edge.relationship is Relationship.SIBLING
        )

    def basic_aggregates(self) -> tuple[AggregateFunction, ...]:
        """The aggregate functions of all basic measures."""
        return tuple(m.aggregate for m in self.basic_measures())

    def supports_early_aggregation(self) -> bool:
        """Whether mappers can ship partial aggregates instead of records.

        Requires every basic measure to be distributive or algebraic,
        and every composite to be :meth:`anchored_without_records`.
        """
        return all(
            fn.supports_partial_aggregation for fn in self.basic_aggregates()
        ) and self.anchored_without_records()

    def anchored_without_records(self) -> bool:
        """Whether every composite's regions can be anchored from tables.

        A composite whose edges are *all* parent/child needs a basic
        measure at a finer granularity **in its own connected
        component** (the parallel evaluator redistributes each component
        separately) -- without raw records, such a measure's regions can
        only be anchored from a finer table.  Early aggregation and the
        measure cache's derivation from cached basics both rely on it.
        """
        for component in self.components:
            basics = component.basic_measures()
            for measure in component.composite_measures():
                if all(
                    edge.relationship is Relationship.ALIGN
                    for edge in measure.inputs
                ) and not any(
                    measure.granularity.is_generalization_of(
                        basic.granularity
                    )
                    for basic in basics
                ):
                    return False
        return True

    def dependents(self, measure: Measure) -> tuple[Measure, ...]:
        return tuple(
            m for m in self.measures if measure in m.source_measures()
        )

    def granularities(self):
        return tuple(measure.granularity for measure in self.measures)

    def describe(self) -> str:
        """A human-readable multi-line summary of the workflow."""
        lines = []
        for measure in self.topological_order():
            if measure.is_basic:
                lines.append(
                    f"{measure.name} {measure.granularity} = "
                    f"{measure.aggregate.name}({measure.field})"
                )
            else:
                deps = []
                for edge in measure.inputs:
                    part = f"{edge.source.name}[{edge.relationship.value}"
                    if edge.window is not None:
                        part += f" {edge.window}"
                    if edge.aggregate is not None:
                        part += f" {edge.aggregate.name}"
                    deps.append(part + "]")
                lines.append(
                    f"{measure.name} {measure.granularity} = "
                    f"{measure.effective_combine.name}({', '.join(deps)})"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workflow({len(self.measures)} measures: {self.names})"


def connected_components(workflow: Workflow) -> tuple[Workflow, ...]:
    """Split a workflow into its weakly connected components.

    Measures with no dependency path between them need not share a
    distribution key: the parallel evaluator redistributes each component
    under its own (finer, hence better-balanced) key within one job.
    The components preserve the original measure order; their
    concatenation is the original measure set.  The value is cached on
    the workflow (:attr:`Workflow.components`).
    """
    return workflow.components


def subworkflow(workflow: Workflow, names: Iterable[str]) -> Workflow:
    """The workflow restricted to *names* and their transitive sources."""
    needed: list[Measure] = []
    seen: set[str] = set()

    def visit(measure: Measure):
        if measure.name in seen:
            return
        seen.add(measure.name)
        for source in measure.source_measures():
            visit(source)
        needed.append(measure)

    for name in names:
        visit(workflow.measure(name))
    return Workflow(workflow.schema, needed)
