"""Reading, reconstructing, and rendering per-query trace trees.

Consumes :meth:`Span.to_dict <repro.obs.tracer.Span.to_dict>` records
from either shape on disk:

* a **span file** -- one JSON span per line, written by
  :func:`~repro.obs.export.write_jsonl` (live by ``repro serve
  --trace-spans``, after the run by ``repro trace --events``); or
* a **flight-recorder bundle** -- one self-contained JSON object with a
  ``"spans"`` list (see :mod:`repro.obs.flight`).

:func:`iter_spans` streams line-by-line (a multi-hour serve run's span
file never has to fit in memory) and supports ``tail=N`` with bounded
memory.  :func:`collect_trace` reassembles one query's causal tree,
*following links*: a share-group execution span belongs to its primary
trace but links to the other members' root spans, so every member's
view includes the shared execution subtree.  :func:`render_trace` is
the ``repro trace --query`` ASCII view; its Chrome export goes through
:func:`~repro.obs.export.chrome_trace_events` like every other span set.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable, Optional, Sequence

__all__ = [
    "collect_trace",
    "find_orphans",
    "iter_spans",
    "list_traces",
    "render_trace",
]


def _bundle_spans(data: dict) -> list[dict]:
    spans = data.get("spans", [])
    return [span for span in spans if "span_id" in span]


def iter_spans(source: str | IO[str],
               tail: Optional[int] = None) -> Iterable[dict]:
    """Yield span dicts from a span file or flight bundle.

    Streams JSONL line-by-line; with *tail* only the last N spans are
    yielded, buffered in a bounded deque (memory stays O(N) however
    long the file is).  Flight-recorder bundles (a single JSON object
    with a ``"spans"`` key) are detected from the first line -- or, for
    pretty-printed bundles, by re-reading the whole document when the
    first line alone does not parse.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from iter_spans(handle, tail=tail)
        return

    first = source.readline()
    if not first.strip():
        return
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        # A pretty-printed bundle: the first line is a fragment.
        rest = first + source.read()
        head = json.loads(rest)
        spans = _bundle_spans(head)
        yield from spans[-tail:] if tail else spans
        return
    if isinstance(head, dict) and "spans" in head and "span_id" not in head:
        spans = _bundle_spans(head)
        yield from spans[-tail:] if tail else spans
        return

    if tail:
        window: deque = deque(maxlen=tail)
        window.append(head)
        for line in source:
            if line.strip():
                window.append(json.loads(line))
        yield from window
        return
    yield head
    for line in source:
        if line.strip():
            yield json.loads(line)


def find_orphans(spans: Sequence[dict]) -> list[dict]:
    """Spans whose parent id is set but absent from *spans*.

    Zero orphans is the smoke-test invariant: every span the run
    recorded hangs off some root.
    """
    known = {span["span_id"] for span in spans}
    return [
        span
        for span in spans
        if span.get("parent_id") is not None
        and span["parent_id"] not in known
    ]


def list_traces(spans: Sequence[dict]) -> dict:
    """Summarize available traces: trace_id -> {root, spans, span count}."""
    summary: dict[str, dict] = {}
    for span in spans:
        entry = summary.setdefault(
            span.get("trace_id", "?"), {"root": "", "spans": 0}
        )
        entry["spans"] += 1
        if span.get("parent_id") is None:
            entry["root"] = span.get("name", "")
    return summary


def collect_trace(spans: Sequence[dict], trace_id: str) -> list[dict]:
    """One query's causal tree: its trace's spans plus linked subtrees.

    Link-following makes share groups work: the group's execution span
    lives in the primary member's trace with ``links`` naming the other
    members' root spans.  For a non-primary member we pull in every
    span that links to one of its spans, then that span's descendants.
    """
    children: dict[str, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(span)

    picked: dict[str, dict] = {}
    frontier: list[dict] = []
    for span in spans:
        if span.get("trace_id") == trace_id:
            picked[span["span_id"]] = span
            frontier.append(span)
    # Spans in other traces that link to one of ours join the tree.
    ours = set(picked)
    for span in spans:
        if span["span_id"] in picked:
            continue
        for link in span.get("links", ()):
            if len(link) == 2 and (link[0] == trace_id or
                                   link[1] in ours):
                picked[span["span_id"]] = span
                frontier.append(span)
                break
    # Transitive closure over parent-child edges.
    while frontier:
        span = frontier.pop()
        for child in children.get(span["span_id"], ()):
            if child["span_id"] not in picked:
                picked[child["span_id"]] = span_child = child
                frontier.append(span_child)
    ordered = sorted(
        picked.values(),
        key=lambda s: (s.get("wall_start", 0.0), s["span_id"]),
    )
    return ordered


def _attr_text(span: dict) -> str:
    attributes = span.get("attributes") or {}
    parts = [
        f"{key}={value}"
        for key, value in attributes.items()
        if isinstance(value, (str, int, float, bool))
    ]
    return ("  " + " ".join(parts)) if parts else ""


def render_trace(spans: Sequence[dict], trace_id: str) -> str:
    """ASCII tree of one query's trace (the ``repro trace --query`` view)."""
    tree = collect_trace(spans, trace_id)
    if not tree:
        return f"(no spans for trace {trace_id})"
    by_id = {span["span_id"]: span for span in tree}
    # A linked span renders under the local span it links to, when its
    # real parent is outside this trace's view.
    children: dict[Optional[str], list[dict]] = {}
    for span in tree:
        parent = span.get("parent_id")
        if parent not in by_id and parent is not None:
            parent = next(
                (link[1] for link in span.get("links", ())
                 if len(link) == 2 and link[1] in by_id),
                None,
            )
        children.setdefault(
            parent if parent in by_id else None, []
        ).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.get("wall_start", 0.0),
                                     s["span_id"]))

    base = min(span.get("wall_start", 0.0) for span in tree)
    lines = [f"trace {trace_id} · {len(tree)} spans"]

    def walk(span: dict, depth: int) -> None:
        start_ms = (span.get("wall_start", 0.0) - base) * 1000.0
        duration_ms = (
            span.get("wall_end", 0.0) - span.get("wall_start", 0.0)
        ) * 1000.0
        process = span.get("process", "")
        linked = " ⇢shared" if span.get("links") else ""
        lines.append(
            f"{'  ' * depth}{span.get('name', '?'):<18} "
            f"+{start_ms:8.1f}ms {duration_ms:8.1f}ms"
            f"  [{process}]{linked}{_attr_text(span)}"
        )
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 1)
    return "\n".join(lines)
