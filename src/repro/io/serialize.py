"""Serialization of workflows and results.

Workflows round-trip through three representations:

* a plain dict (:func:`workflow_to_dict` / :func:`workflow_from_dict`),
  suitable for JSON transport and tooling;
* the textual query language (:func:`workflow_to_script`), which
  :func:`repro.query.parser.parse_workflow` reads back;
* the in-memory :class:`~repro.query.workflow.Workflow` itself.

Aggregate functions serialize by registry name, so parameterized ones
(exact quantiles) must have been instantiated in the target process
before loading.  Combine expressions serialize by name and resolve
against the parser's built-ins plus a user-supplied mapping; anonymous
lambdas are rejected at save time rather than silently dropped.

Result sets export to JSON (with granularity metadata) and CSV rows.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Mapping

from repro.cube.records import Schema
from repro.cube.regions import Granularity
from repro.local.measure_table import MeasureTable, ResultSet
from repro.query.builder import WorkflowBuilder
from repro.query.functions import Expression, get_function
from repro.query.measures import Measure, Relationship
from repro.query.parser import BUILTIN_EXPRESSIONS
from repro.query.workflow import Workflow


class SerializationError(ValueError):
    """A workflow or result cannot be (de)serialized faithfully."""


# ---------------------------------------------------------------------------
# Workflow <-> dict
# ---------------------------------------------------------------------------

def _grain_to_dict(granularity: Granularity) -> dict[str, str]:
    return {
        attr: granularity.level_of(attr)
        for attr in granularity.non_all_attributes()
    }


def _expression_name(measure: Measure, known: Mapping[str, Expression]) -> str | None:
    if measure.combine is None:
        return None
    name = measure.combine.name
    if name not in known:
        raise SerializationError(
            f"measure {measure.name!r} combines with {name!r}, which is "
            "not a named expression; register it in the expressions "
            "mapping to serialize this workflow"
        )
    return name


def workflow_to_dict(
    workflow: Workflow,
    expressions: Mapping[str, Expression] | None = None,
) -> dict:
    """A JSON-safe description of *workflow* (schema not included)."""
    known = dict(BUILTIN_EXPRESSIONS)
    if expressions:
        known.update(expressions)
    measures = []
    for measure in workflow.topological_order():
        entry: dict = {
            "name": measure.name,
            "over": _grain_to_dict(measure.granularity),
        }
        if measure.is_basic:
            entry["field"] = measure.field
            entry["aggregate"] = measure.aggregate.name
        else:
            entry["inputs"] = [
                {
                    "source": edge.source.name,
                    "relationship": edge.relationship.value,
                    **(
                        {
                            "window": {
                                "attribute": edge.window.attribute,
                                "low": edge.window.low,
                                "high": edge.window.high,
                            }
                        }
                        if edge.window is not None
                        else {}
                    ),
                    **(
                        {"aggregate": edge.aggregate.name}
                        if edge.aggregate is not None
                        else {}
                    ),
                }
                for edge in measure.inputs
            ]
            combine = _expression_name(measure, known)
            if combine is not None:
                entry["combine"] = combine
        measures.append(entry)
    return {"measures": measures}


def workflow_from_dict(
    data: Mapping,
    schema: Schema,
    expressions: Mapping[str, Expression] | None = None,
) -> Workflow:
    """Rebuild a workflow from :func:`workflow_to_dict` output."""
    known = dict(BUILTIN_EXPRESSIONS)
    if expressions:
        known.update(expressions)
    relationships = {rel.value: rel for rel in Relationship}
    builder = WorkflowBuilder(schema)
    for entry in data["measures"]:
        name, over = entry["name"], entry["over"]
        if "field" in entry:
            builder.basic(
                name, over=over, field=entry["field"],
                aggregate=get_function(entry["aggregate"]),
            )
            continue
        draft = builder.composite(name, over=over)
        for edge in entry["inputs"]:
            relationship = relationships.get(edge["relationship"])
            if relationship is None:
                raise SerializationError(
                    f"unknown relationship {edge['relationship']!r}"
                )
            source = edge["source"]
            if relationship is Relationship.SELF:
                draft.from_self(source)
            elif relationship is Relationship.ALIGN:
                draft.from_parent(source)
            elif relationship is Relationship.ROLLUP:
                draft.from_children(
                    source, aggregate=get_function(edge["aggregate"])
                )
            else:
                window = edge["window"]
                draft.window(
                    source,
                    attribute=window["attribute"],
                    low=window["low"],
                    high=window["high"],
                    aggregate=get_function(edge["aggregate"]),
                )
        combine = entry.get("combine")
        if combine is not None:
            expression = known.get(combine)
            if expression is None:
                raise SerializationError(
                    f"unknown combine expression {combine!r}; pass it in "
                    "the expressions mapping"
                )
            draft.combine(expression)
    return builder.build()


def workflow_to_json(workflow: Workflow, **kwargs) -> str:
    """:func:`workflow_to_dict`, rendered as indented JSON text."""
    return json.dumps(workflow_to_dict(workflow, **kwargs), indent=2)


def workflow_from_json(
    text: str,
    schema: Schema,
    expressions: Mapping[str, Expression] | None = None,
) -> Workflow:
    """Parse JSON text saved by :func:`workflow_to_json`."""
    return workflow_from_dict(json.loads(text), schema, expressions)


# ---------------------------------------------------------------------------
# Workflow -> query-language script
# ---------------------------------------------------------------------------

def _edge_to_text(edge) -> str:
    if edge.relationship is Relationship.SELF:
        return f"self({edge.source.name})"
    if edge.relationship is Relationship.ALIGN:
        return f"parent({edge.source.name})"
    if edge.relationship is Relationship.ROLLUP:
        return f"{edge.aggregate.name}(children({edge.source.name}))"
    window = edge.window
    return (
        f"{edge.aggregate.name}(window({edge.source.name}, "
        f"{window.attribute}, {window.low}, {window.high}))"
    )


def workflow_to_script(
    workflow: Workflow,
    expressions: Mapping[str, Expression] | None = None,
) -> str:
    """Render *workflow* in the textual query language.

    The output parses back (with the same expressions mapping) to a
    structurally identical workflow.
    """
    known = dict(BUILTIN_EXPRESSIONS)
    if expressions:
        known.update(expressions)
    lines = []
    for measure in workflow.topological_order():
        grain = ", ".join(
            f"{attr}:{level}"
            for attr, level in _grain_to_dict(measure.granularity).items()
        ) or "ALL"
        if measure.is_basic:
            body = f"{measure.aggregate.name}({measure.field})"
        else:
            parts = [_edge_to_text(edge) for edge in measure.inputs]
            combine = _expression_name(measure, known)
            if combine is None:
                body = parts[0]
            else:
                body = f"{combine}({', '.join(parts)})"
        lines.append(f"measure {measure.name} over {grain} = {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def result_to_dict(result: ResultSet) -> dict:
    """A JSON-safe dump of a result set, granularities included."""
    return {
        "measures": {
            name: {
                "granularity": _grain_to_dict(table.granularity),
                "rows": [
                    {"coords": list(coords), "value": value}
                    for coords, value in sorted(table.items())
                ],
            }
            for name, table in result.items()
        }
    }


def result_from_dict(data: Mapping, schema: Schema) -> ResultSet:
    """Rebuild a result set saved by :func:`result_to_dict`."""
    tables = {}
    for name, entry in data["measures"].items():
        granularity = Granularity.of(schema, entry["granularity"])
        tables[name] = MeasureTable(
            granularity,
            {
                tuple(row["coords"]): row["value"]
                for row in entry["rows"]
            },
        )
    return ResultSet(tables)


def write_result_csv(result: ResultSet, stream: IO[str]) -> int:
    """Write ``measure, attr=coord..., value`` rows; returns row count."""
    writer = csv.writer(stream)
    writer.writerow(["measure", "region", "value"])
    count = 0
    for name, table in sorted(result.items()):
        names = table.granularity.schema.attribute_names
        levels = table.granularity.levels
        for coords, value in sorted(table.items()):
            region = ";".join(
                f"{attr}={coord}"
                for attr, coord, level in zip(names, coords, levels)
                if level != "ALL"
            )
            writer.writerow([name, region, value])
            count += 1
    return count
