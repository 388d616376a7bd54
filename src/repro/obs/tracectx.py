"""The trace plane's wire format: contexts and worker-shipped spans.

The serving daemon interleaves many queries on one event loop and fans
execution out to worker *processes*, so causal structure is carried
explicitly rather than by a call stack.  This module holds what crosses
those boundaries; the recorder is :class:`~repro.obs.tracer.Tracer`.

* :class:`TraceContext` -- an immutable (trace_id, span_id, parent_id,
  links) tuple minted once per query and handed down through admission,
  share groups, executors, and worker processes.  ``to_wire()`` /
  :func:`context_from_wire` give it a JSON-safe shape for the existing
  seq-deduped telemetry channel.  Span ids (:func:`new_span_id`) are
  ``"{pid:x}.{counter}"`` strings, unique across processes, so a merge
  of daemon and worker spans needs no coordination.
* :func:`wire_span` -- worker-side span construction from a wire
  context without a tracer instance (workers only buffer and ship).
* :class:`SpanCollector` -- driver-side dedup of worker spans by
  (worker, seq), mirroring the chaos-safe merge the telemetry plane
  uses for counters: retries and re-flushes never double-record.

Share-group semantics: a group's single execution span belongs to the
*first* member's trace and carries ``links`` -- (trace_id, span_id)
pairs naming the other members' root spans -- so every member's tree
reaches the shared execution subtree.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "SpanCollector",
    "TraceContext",
    "context_from_wire",
    "fork_context",
    "new_span_id",
    "wire_span",
]

_COUNTER = itertools.count(1)


def new_span_id() -> str:
    """A process-unique span id, comparable across processes.

    The pid prefix keeps ids minted independently in the daemon and in
    every worker process distinct without shared state.
    """
    return f"{os.getpid():x}.{next(_COUNTER)}"


@dataclass(frozen=True)
class TraceContext:
    """Where a new span would attach: trace plus parent position.

    ``span_id`` is the id a span *closing this context* records under
    (and the parent id for children forked from it); ``links`` are
    foreign (trace_id, span_id) parents for share-group execution
    spans that serve several queries at once.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    links: tuple = ()

    def to_wire(self) -> dict:
        """A JSON-safe mapping shippable to worker processes."""
        data = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        if self.links:
            data["links"] = [list(pair) for pair in self.links]
        return data


def context_from_wire(data: dict) -> TraceContext:
    """Rebuild a :class:`TraceContext` from :meth:`TraceContext.to_wire`."""
    return TraceContext(
        trace_id=data["trace_id"],
        span_id=data["span_id"],
        parent_id=data.get("parent_id"),
        links=tuple(tuple(pair) for pair in data.get("links", ())),
    )


def fork_context(ctx: TraceContext, links: Sequence = ()) -> TraceContext:
    """A child context: fresh span id, parented under *ctx*'s span."""
    return TraceContext(
        trace_id=ctx.trace_id,
        span_id=new_span_id(),
        parent_id=ctx.span_id,
        links=tuple(tuple(pair) for pair in links),
    )


def wire_span(
    ctx: dict,
    name: str,
    wall_start: float,
    wall_end: float,
    process: str = "",
    **attributes,
) -> dict:
    """Build a span dict under a wire context, without a tracer.

    Worker processes call this: they hold only the wire form of the
    execution context and buffer finished spans for the telemetry
    flush, so there is no tracer on that side.
    """
    span = {
        "name": name,
        "trace_id": ctx["trace_id"],
        "span_id": new_span_id(),
        "parent_id": ctx["span_id"],
        "wall_start": wall_start,
        "wall_end": wall_end,
    }
    if process:
        span["process"] = process
    if attributes:
        span["attributes"] = attributes
    return span


class SpanCollector:
    """Deduplicates worker-shipped spans by (worker, seq).

    Workers buffer finished spans with a monotonically increasing seq
    and ship the recent window with *every* telemetry flush (the same
    at-least-once channel the counters use), so the driver may see a
    span many times and -- after retries -- out of order per worker.
    Keeping the highest seq seen per worker makes the merge idempotent;
    each new span goes to *sink* exactly once (typically
    :meth:`~repro.obs.tracer.Tracer.ingest`).
    """

    def __init__(self, sink: Callable[[dict], object]):
        self._sink = sink
        self._seen: dict[str, int] = {}

    def merge(self, worker: str, entries: Iterable) -> int:
        """Absorb ``(seq, span_dict)`` pairs from *worker*; returns the
        number of new spans passed to the sink."""
        last = self._seen.get(worker, -1)
        added = 0
        for seq, span in entries:
            if seq > last:
                self._sink(span)
                last = seq
                added += 1
        self._seen[worker] = last
        return added
