"""Measures and the relationships connecting them.

A *measure* is a node of an aggregation workflow, defined over a region
set (a :class:`~repro.cube.regions.Granularity`).  Basic measures
aggregate raw records; composite measures derive their values from source
measures through the paper's four relationships (Table II):

===========  =============================================================
self         same region, same granularity; value feeds an expression
child/parent value of a region aggregates the values of its child regions
             (:data:`Relationship.ROLLUP` -- source is strictly finer)
parent/child value of a region is derived from its parent region's value
             (:data:`Relationship.ALIGN` -- source is strictly coarser)
sibling      value aggregates neighbouring regions of the same
             granularity along one numeric attribute (a sliding window)
===========  =============================================================

Each edge yields exactly one value per target region: ``ROLLUP`` and
``SIBLING`` edges carry their own aggregate function; ``SELF`` and
``ALIGN`` edges copy a single aligned value.  The measure then combines
its edges' values with a scalar :class:`~repro.query.functions.Expression`
(defaulting to identity for single-edge measures).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.cube.regions import Granularity
from repro.query.functions import (
    IDENTITY,
    AggregateFunction,
    Expression,
    resolve,
)


class WorkflowError(ValueError):
    """Raised for structurally invalid measures or workflows."""


class Relationship(enum.Enum):
    """How a composite measure's value depends on a source measure."""

    SELF = "self"
    ROLLUP = "child/parent"
    ALIGN = "parent/child"
    SIBLING = "sibling"


@dataclass(frozen=True)
class SiblingWindow:
    """A sibling match condition ``{attribute: (low, high)}``.

    The measure value at coordinate ``t`` (in the granularity's level of
    *attribute*) aggregates source values at coordinates ``t + low``
    through ``t + high`` inclusive.  A trailing ten-minute moving average
    over minute-level data is ``SiblingWindow("time", -9, 0)``.
    """

    attribute: str
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise WorkflowError(
                f"sibling window ({self.low}, {self.high}) has low > high"
            )

    @property
    def span(self) -> int:
        """Number of source regions the window covers."""
        return self.high - self.low + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{{{self.attribute}:({self.low},{self.high})}}"


@dataclass(frozen=True)
class Edge:
    """A dependency of a composite measure on one source measure."""

    source: "Measure"
    relationship: Relationship
    window: Optional[SiblingWindow] = None
    aggregate: Optional[AggregateFunction] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" {self.window}" if self.window else ""
        return f"Edge({self.source.name} --{self.relationship.value}-->{extra})"


@dataclass(frozen=True)
class Measure:
    """One node of an aggregation workflow.

    Exactly one of the two forms is populated:

    * basic: ``field`` and ``aggregate`` are set, ``inputs`` is empty;
    * composite: ``inputs`` is non-empty and ``combine`` merges the
      per-edge values (identity when there is a single edge).
    """

    name: str
    granularity: Granularity
    field: Optional[str] = None
    aggregate: Optional[AggregateFunction] = None
    inputs: tuple[Edge, ...] = ()
    combine: Optional[Expression] = None

    def __post_init__(self):
        if self.is_basic == bool(self.inputs):
            raise WorkflowError(
                f"measure {self.name!r} must be either basic (field + "
                "aggregate) or composite (inputs), not both/neither"
            )
        if self.is_basic:
            self._validate_basic()
        else:
            self._validate_composite()

    @property
    def is_basic(self) -> bool:
        return self.field is not None

    @property
    def schema(self):
        return self.granularity.schema

    def source_measures(self) -> tuple["Measure", ...]:
        return tuple(edge.source for edge in self.inputs)

    @property
    def effective_combine(self) -> Expression:
        """The combine expression, defaulting to identity."""
        if self.combine is not None:
            return self.combine
        return IDENTITY

    @cached_property
    def signature(self) -> str:
        """A name-independent structural hash of this measure's definition.

        Two measures get the same signature exactly when they compute the
        same thing: same granularity, same aggregate/combine functions,
        and structurally identical source subgraphs (recursively,
        ignoring every measure name along the way).  Computed once per
        measure: the measure is frozen, so its structure cannot change.
        """
        levels = ",".join(self.granularity.levels)
        if self.is_basic:
            text = f"basic|{levels}|{self.field}|{self.aggregate.name}"
        else:
            edges = []
            for edge in self.inputs:
                window = (
                    f"{edge.window.attribute}:{edge.window.low}:"
                    f"{edge.window.high}"
                    if edge.window is not None
                    else "-"
                )
                aggregate = (
                    edge.aggregate.name if edge.aggregate is not None else "-"
                )
                edges.append(
                    f"{edge.relationship.value}|{window}|{aggregate}|"
                    f"{edge.source.signature}"
                )
            combine = self.effective_combine
            text = (
                f"composite|{levels}|{combine.name}/{combine.arity}|"
                + ";".join(edges)
            )
        return hashlib.sha256(text.encode()).hexdigest()[:32]

    # -- validation ---------------------------------------------------------

    def _validate_basic(self):
        if self.aggregate is None:
            raise WorkflowError(
                f"basic measure {self.name!r} needs an aggregate function"
            )
        if not self.schema.has_field(self.field):
            raise WorkflowError(
                f"basic measure {self.name!r} aggregates unknown field "
                f"{self.field!r}"
            )
        if self.combine is not None:
            raise WorkflowError(
                f"basic measure {self.name!r} cannot have a combine "
                "expression"
            )

    def _validate_composite(self):
        for edge in self.inputs:
            self._validate_edge(edge)
        arity = len(self.inputs)
        if self.combine is None:
            if arity != 1:
                raise WorkflowError(
                    f"measure {self.name!r} has {arity} inputs and needs an "
                    "explicit combine expression"
                )
        elif self.combine.arity != arity:
            raise WorkflowError(
                f"measure {self.name!r}: combine expression "
                f"{self.combine.name!r} has arity {self.combine.arity}, "
                f"but the measure has {arity} inputs"
            )

    def _validate_edge(self, edge: Edge):
        source = edge.source
        if source.schema != self.schema:
            raise WorkflowError(
                f"measure {self.name!r} depends on {source.name!r} from a "
                "different schema"
            )
        mine, theirs = self.granularity, source.granularity
        relationship = edge.relationship
        if relationship is Relationship.SELF:
            if mine != theirs:
                raise WorkflowError(
                    f"self edge {source.name!r} -> {self.name!r} requires "
                    f"identical granularities ({theirs} vs {mine})"
                )
            self._require_no_aggregate(edge)
        elif relationship is Relationship.ROLLUP:
            if not mine.is_generalization_of(theirs) or mine == theirs:
                raise WorkflowError(
                    f"rollup edge {source.name!r} -> {self.name!r} requires "
                    f"the target {mine} to be strictly coarser than the "
                    f"source {theirs}"
                )
            self._require_aggregate(edge)
        elif relationship is Relationship.ALIGN:
            if not theirs.is_generalization_of(mine) or mine == theirs:
                raise WorkflowError(
                    f"align edge {source.name!r} -> {self.name!r} requires "
                    f"the source {theirs} to be strictly coarser than the "
                    f"target {mine}"
                )
            self._require_no_aggregate(edge)
        elif relationship is Relationship.SIBLING:
            self._validate_sibling(edge)
        else:  # pragma: no cover - exhaustive enum
            raise WorkflowError(f"unknown relationship {relationship!r}")
        if edge.window is not None and relationship is not Relationship.SIBLING:
            raise WorkflowError(
                f"edge {source.name!r} -> {self.name!r}: only sibling edges "
                "carry windows"
            )

    def _validate_sibling(self, edge: Edge):
        source = edge.source
        if self.granularity != source.granularity:
            raise WorkflowError(
                f"sibling edge {source.name!r} -> {self.name!r} requires "
                "identical granularities"
            )
        if edge.window is None:
            raise WorkflowError(
                f"sibling edge {source.name!r} -> {self.name!r} needs a "
                "window"
            )
        attribute = self.schema.attribute(edge.window.attribute)
        if not attribute.supports_ranges:
            raise WorkflowError(
                f"sibling window on nominal attribute {attribute.name!r}; "
                "closeness is undefined for nominal domains"
            )
        level = self.granularity.level_of(attribute.name)
        if attribute.hierarchy.level(level).is_all:
            raise WorkflowError(
                f"sibling window on attribute {attribute.name!r} requires "
                "a non-ALL level in the measure granularity"
            )
        self._require_aggregate(edge)

    def _require_aggregate(self, edge: Edge):
        if edge.aggregate is None:
            raise WorkflowError(
                f"edge {edge.source.name!r} -> {self.name!r} "
                f"({edge.relationship.value}) needs an aggregate function"
            )

    def _require_no_aggregate(self, edge: Edge):
        if edge.aggregate is not None:
            raise WorkflowError(
                f"edge {edge.source.name!r} -> {self.name!r} "
                f"({edge.relationship.value}) must not carry an aggregate"
            )

    # -- hashing ------------------------------------------------------------
    # Measures participate in dict keys throughout evaluation; identity
    # semantics are what we want (two distinct nodes may look alike).

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "basic" if self.is_basic else "composite"
        return f"Measure({self.name!r}, {kind}, {self.granularity})"


def basic_measure(
    name: str,
    granularity: Granularity,
    field: str,
    aggregate,
) -> Measure:
    """Create a basic measure; *aggregate* may be a function name."""
    return Measure(
        name, granularity, field=field, aggregate=resolve(aggregate)
    )
