"""Nested span tracing on two clocks: wall time and the simulated clock.

A :class:`Tracer` records :class:`SpanEvent`\\ s -- named, attributed
intervals forming a tree via a context-manager stack::

    with tracer.span("optimize", component=0) as span:
        ...
        span.set(chosen_key=repr(key))

Every span carries *wall-clock* timestamps (``time.perf_counter``, real
host time -- useful for profiling the reproduction itself) and may carry
*simulated-clock* timestamps (the deterministic virtual seconds charged
by :class:`~repro.mapreduce.timing.TimingModel`).  Simulated fields are
set explicitly by the instrumentation (:meth:`Span.set_sim`,
:meth:`Tracer.record_span`), so they are bit-identical across runs;
wall fields are measurements and are not.

Tracing is strictly opt-in.  Instrumented code defaults to
:data:`NULL_TRACER`, whose ``span()`` returns one cached no-op handle --
the disabled path is a single attribute lookup plus a method call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
]


@dataclass
class SpanEvent:
    """One finished span: a named interval with attributes on two clocks.

    ``track``/``slot`` are set only for per-task spans replayed from a
    :class:`~repro.mapreduce.trace.TaskSpan` schedule; exporters render
    those as one timeline row per (track, slot) pair.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    wall_start: float
    wall_end: float
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    track: Optional[str] = None
    slot: Optional[int] = None
    attributes: dict = field(default_factory=dict)

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def to_dict(self) -> dict:
        """A JSON-ready mapping (used by the JSONL exporter)."""
        data = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
        }
        if self.sim_start is not None:
            data["sim_start"] = self.sim_start
            data["sim_end"] = self.sim_end
        if self.track is not None:
            data["track"] = self.track
            data["slot"] = self.slot
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        return data


class Span:
    """A live span handle, valid inside its ``with`` block.

    Returned by :meth:`Tracer.span`; use :meth:`set` to attach
    attributes discovered mid-block and :meth:`set_sim` to pin the
    span's position on the simulated clock.
    """

    __slots__ = (
        "_tracer",
        "name",
        "span_id",
        "parent_id",
        "depth",
        "wall_start",
        "sim_start",
        "sim_end",
        "attributes",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int,
                 sim_start: Optional[float], sim_end: Optional[float],
                 attributes: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.wall_start = tracer._clock()
        self.sim_start = sim_start
        self.sim_end = sim_end
        self.attributes = attributes

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) structured attributes."""
        self.attributes.update(attributes)
        return self

    def set_sim(self, start: float, end: float) -> "Span":
        """Pin the span's interval on the simulated clock."""
        if end < start:
            raise ValueError(f"simulated interval ends before it starts: "
                             f"[{start}, {end}]")
        self.sim_start = start
        self.sim_end = end
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self)


class _NullSpan:
    """The shared no-op span handle of :data:`NULL_TRACER`."""

    __slots__ = ()

    def set(self, **attributes) -> "_NullSpan":
        return self

    def set_sim(self, start: float, end: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects nested span events; the enabled implementation.

    Args:
        clock: Wall-clock source, ``time.perf_counter`` by default
            (injectable for deterministic tests).
        on_event: Optional callback fired with each :class:`SpanEvent`
            as it finishes -- the hook live progress sinks attach to.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        on_event: Optional[Callable[[SpanEvent], None]] = None,
    ):
        self._clock = clock
        self._on_event = on_event
        self._next_id = 0
        self._stack: list[Span] = []
        self.events: list[SpanEvent] = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str, sim_start: Optional[float] = None,
             sim_end: Optional[float] = None, **attributes) -> Span:
        """Open a span; use as ``with tracer.span("name") as span:``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self,
            name,
            span_id,
            parent.span_id if parent is not None else None,
            len(self._stack),
            sim_start,
            sim_end,
            attributes,
        )
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        # Exiting out of order must not corrupt the tree.  Two cases:
        # the exiting span leaked inner spans (they sit above it on the
        # stack) -- repair their depth so their eventual events still
        # describe a consistent tree, then drop them; or the exiting
        # span itself already leaked past an outer exit and is no
        # longer on the stack at all, in which case the stack must stay
        # untouched (blindly popping here would destroy unrelated
        # spans opened since).
        index = None
        for position in range(len(self._stack) - 1, -1, -1):
            if self._stack[position] is span:
                index = position
                break
        if index is not None:
            for offset, leaked in enumerate(self._stack[index + 1:]):
                leaked.depth = span.depth + 1 + offset
            del self._stack[index:]
        event = SpanEvent(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            depth=span.depth,
            wall_start=span.wall_start,
            wall_end=self._clock(),
            sim_start=span.sim_start,
            sim_end=span.sim_end,
            attributes=span.attributes,
        )
        self.events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def record_span(self, name: str, sim_start: float, sim_end: float,
                    track: Optional[str] = None, slot: Optional[int] = None,
                    **attributes) -> SpanEvent:
        """Record a completed span purely on the simulated clock.

        Used for intervals that exist only in simulated time (phase
        makespans, per-slot task placements): the wall interval is a
        point at the current wall clock, and the span parents under
        whatever span is currently open.
        """
        now = self._clock()
        parent = self._stack[-1] if self._stack else None
        event = SpanEvent(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            wall_start=now,
            wall_end=now,
            sim_start=sim_start,
            sim_end=sim_end,
            track=track,
            slot=slot,
            attributes=attributes,
        )
        self._next_id += 1
        self.events.append(event)
        if self._on_event is not None:
            self._on_event(event)
        return event

    def add_task_spans(self, track: str, spans: Iterable, *,
                       sim_offset: float = 0.0, name: str = "task") -> None:
        """Replay a scheduled task placement as per-slot span events.

        *spans* is any iterable of
        :class:`~repro.mapreduce.trace.TaskSpan`-shaped objects (fields
        ``task``, ``slot``, ``start``, ``end`` in simulated seconds);
        *sim_offset* shifts them onto the job's global simulated
        timeline.
        """
        for task_span in spans:
            self.record_span(
                f"{name} {task_span.task}",
                sim_offset + task_span.start,
                sim_offset + task_span.end,
                track=track,
                slot=task_span.slot,
                task=task_span.task,
            )

    # -- inspection ------------------------------------------------------------

    def names(self) -> list[str]:
        """Finished span names in completion order (test convenience)."""
        return [event.name for event in self.events]

    def find(self, name: str) -> list[SpanEvent]:
        """All finished spans called *name*."""
        return [event for event in self.events if event.name == name]


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shares the :class:`Tracer` interface so instrumented code never
    branches on whether tracing is on; records nothing.
    """

    enabled = False
    events: tuple = ()

    def span(self, name: str, sim_start: Optional[float] = None,
             sim_end: Optional[float] = None, **attributes) -> _NullSpan:
        """Return the cached no-op span handle."""
        return _NULL_SPAN

    def record_span(self, name: str, sim_start: float, sim_end: float,
                    track: Optional[str] = None, slot: Optional[int] = None,
                    **attributes) -> None:
        """Do nothing."""
        return None

    def add_task_spans(self, track: str, spans: Iterable, *,
                       sim_offset: float = 0.0, name: str = "task") -> None:
        """Do nothing."""
        return None

    def names(self) -> list[str]:
        """Always empty."""
        return []

    def find(self, name: str) -> list[SpanEvent]:
        """Always empty."""
        return []


#: The shared disabled tracer; instrumented code defaults to this.
NULL_TRACER = NullTracer()
