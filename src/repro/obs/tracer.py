"""One span model on two clocks: the :class:`Span` record and its recorder.

A :class:`Span` is a named, attributed interval in one trace tree.
Every span carries *wall-clock* timestamps (``time.time`` by default,
so spans recorded in the driver and in worker processes share one
timeline) and may carry *simulated-clock* timestamps -- the
deterministic virtual seconds charged by
:class:`~repro.mapreduce.timing.TimingModel`.  Simulated fields are set
explicitly by the instrumentation (:meth:`Span.set_sim`,
:meth:`Tracer.record_span`), so they are bit-identical across runs;
wall fields are measurements and are not.

A :class:`Tracer` records spans through two APIs onto one list:

* the **stack API**, for in-process code (engine, optimizer, local
  evaluators), where nesting follows a per-thread stack::

      with tracer.span("optimize", component=0) as span:
          ...
          span.set(chosen_key=repr(key))

  plus :meth:`~Tracer.record_span` and :meth:`~Tracer.add_task_spans`
  for intervals that exist only on the simulated clock.  Stack spans
  opened under no other span belong to a trace id the tracer mints for
  itself (:attr:`Tracer.trace_id`); ``span(..., parent=ctx)`` hangs one
  under an explicit :class:`~repro.obs.tracectx.TraceContext` instead;
* the **context API**, for code that carries causality explicitly (the
  serving daemon, share groups, worker processes): :meth:`~Tracer.mint`,
  :meth:`~Tracer.fork`, :meth:`~Tracer.record`, :meth:`~Tracer.close`,
  :meth:`~Tracer.event` and :meth:`~Tracer.ingest`.

Both APIs fire one callback per finished span.  Tracing is strictly
opt-in: instrumented code defaults to :data:`NULL_TRACER`, whose
``span()`` returns one cached no-op handle and whose ``mint()`` returns
one cached context -- the disabled path allocates nothing.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.obs.tracectx import TraceContext, fork_context, new_span_id

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]


@dataclass(slots=True)
class Span:
    """One span: a named interval with attributes on two clocks.

    The live handle :meth:`Tracer.span` returns is the record itself;
    ``wall_end`` is stamped when its ``with`` block exits.
    ``track``/``slot`` are set only for per-task spans replayed from a
    :class:`~repro.mapreduce.trace.TaskSpan` schedule; exporters render
    those as one timeline row per (track, slot) pair.  ``links`` are
    foreign ``(trace_id, span_id)`` parents (share-group execution
    spans serve several queries at once).  ``depth`` is the stack depth
    the span opened at (0 for context spans), used to indent the live
    progress view.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    wall_start: float
    wall_end: float = 0.0
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    track: Optional[str] = None
    slot: Optional[int] = None
    process: str = ""
    links: tuple = ()
    attributes: dict = field(default_factory=dict)
    depth: int = 0
    _tracer: Optional["Tracer"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

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

    def context(self) -> TraceContext:
        """Where children of this span attach (e.g. across a process
        boundary, via :meth:`TraceContext.to_wire`)."""
        return TraceContext(
            self.trace_id, self.span_id, self.parent_id, self.links
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self)

    def to_dict(self) -> dict:
        """A JSON-ready mapping; unset optional fields are omitted."""
        data = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
        }
        if self.depth:
            data["depth"] = self.depth
        if self.sim_start is not None:
            data["sim_start"] = self.sim_start
            data["sim_end"] = self.sim_end
        if self.track is not None:
            data["track"] = self.track
            data["slot"] = self.slot
        if self.process:
            data["process"] = self.process
        if self.links:
            data["links"] = [list(pair) for pair in self.links]
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` (or a worker's
        :func:`~repro.obs.tracectx.wire_span`)."""
        return cls(
            name=data["name"],
            trace_id=data.get("trace_id", ""),
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            wall_start=float(data.get("wall_start", 0.0)),
            wall_end=float(data.get("wall_end", 0.0)),
            sim_start=data.get("sim_start"),
            sim_end=data.get("sim_end"),
            track=data.get("track"),
            slot=data.get("slot"),
            process=data.get("process", ""),
            links=tuple(tuple(pair) for pair in data.get("links", ())),
            attributes=dict(data.get("attributes", {})),
            depth=data.get("depth", 0),
        )


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

#: The one context the disabled tracer mints.
_NULL_CONTEXT = TraceContext(trace_id="", span_id="0")


class Tracer:
    """Records spans from the stack API and the context API.

    Thread-safe: the span list is guarded by one lock and the stack is
    per thread, so interleaved recording from asyncio tasks, threads,
    or spans ingested from worker processes cannot cross-link trees.

    Args:
        clock: Wall-clock source, ``time.time`` by default (shared by
            worker processes; injectable for deterministic tests).
        on_span: Optional callback fired with each finished
            :class:`Span` -- the hook live progress views and JSONL
            span files attach to.
        flight: Optional :class:`~repro.obs.flight.FlightRecorder`;
            every finished span is also pushed onto its ring.
        process: Tag stamped on spans recorded here (default
            ``pid<N>``); exporters draw one timeline per tag.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.time,
        on_span: Optional[Callable[[Span], None]] = None,
        flight=None,
        process: str = "",
    ):
        self._clock = clock
        self._on_span = on_span
        self.flight = flight
        self.process = process or f"pid{os.getpid()}"
        #: The trace of stack spans opened under no other span.
        self.trace_id = new_span_id()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []

    def now(self) -> float:
        return self._clock()

    # -- stack API -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, sim_start: Optional[float] = None,
             sim_end: Optional[float] = None, parent=None,
             **attributes) -> Span:
        """Open a span; use as ``with tracer.span("name") as span:``.

        It parents under the innermost open span of this thread, or
        under *parent* (a :class:`TraceContext` or :class:`Span`) when
        given; spans opened inside it nest under it either way.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            wall_start=self._clock(),
            sim_start=sim_start,
            sim_end=sim_end,
            process=self.process,
            attributes=attributes,
            depth=len(stack),
            _tracer=self,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        # Exiting out of order must not corrupt the tree.  Two cases:
        # the exiting span leaked inner spans (they sit above it on the
        # stack) -- repair their depth so their eventual records still
        # describe a consistent tree, then drop them; or the exiting
        # span itself already leaked past an outer exit and is no
        # longer on the stack at all, in which case the stack must stay
        # untouched (blindly popping here would destroy unrelated
        # spans opened since).
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                for offset, leaked in enumerate(stack[index + 1:]):
                    leaked.depth = span.depth + 1 + offset
                del stack[index:]
                break
        span.wall_end = self._clock()
        self._emit(span)

    def record_span(self, name: str, sim_start: float, sim_end: float,
                    track: Optional[str] = None, slot: Optional[int] = None,
                    **attributes) -> Span:
        """Record a completed span purely on the simulated clock.

        Used for intervals that exist only in simulated time (phase
        makespans, per-slot task placements): the wall interval is a
        point at the current wall clock, and the span parents under
        whatever span is currently open.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        now = self._clock()
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            wall_start=now,
            wall_end=now,
            sim_start=sim_start,
            sim_end=sim_end,
            track=track,
            slot=slot,
            process=self.process,
            attributes=attributes,
            depth=len(stack),
        )
        self._emit(span)
        return span

    def add_task_spans(self, track: str, spans: Iterable, *,
                       sim_offset: float = 0.0, name: str = "task") -> None:
        """Replay a scheduled task placement as per-slot spans.

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

    # -- context API -----------------------------------------------------------

    def mint(self, trace_id: str) -> TraceContext:
        """A fresh root context for one query's trace."""
        return TraceContext(trace_id=trace_id, span_id=new_span_id())

    def fork(self, ctx: TraceContext, links: Sequence = ()) -> TraceContext:
        """A child context under *ctx* (see :func:`fork_context`)."""
        return fork_context(ctx, links=links)

    def record(self, ctx, name: str, wall_start: float, wall_end: float,
               process: str = "", **attributes) -> Span:
        """Record a finished span as a *child* of *ctx* (a
        :class:`TraceContext` or a :class:`Span`)."""
        span = Span(
            name=name,
            trace_id=ctx.trace_id,
            span_id=new_span_id(),
            parent_id=ctx.span_id,
            wall_start=wall_start,
            wall_end=wall_end,
            process=process or self.process,
            attributes=attributes,
        )
        self._emit(span)
        return span

    def close(self, ctx: TraceContext, name: str, wall_start: float,
              wall_end: float, process: str = "", **attributes) -> Span:
        """Record the span *ctx itself* stands for (id, parent, links).

        Used for spans whose children are recorded before the span
        ends: fork the context first, parent children under it, then
        close it once the interval is known.
        """
        span = Span(
            name=name,
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id,
            wall_start=wall_start,
            wall_end=wall_end,
            process=process or self.process,
            links=ctx.links,
            attributes=attributes,
        )
        self._emit(span)
        return span

    def event(self, ctx, name: str, **attributes) -> Span:
        """Record an instantaneous annotation under *ctx* (shed,
        deadline, fallback decisions)."""
        now = self._clock()
        return self.record(ctx, name, now, now, **attributes)

    def ingest(self, span_dict: dict) -> Span:
        """Absorb a span shipped from another process (already deduped)."""
        span = Span.from_dict(span_dict)
        self._emit(span)
        return span

    def _emit(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
        if self.flight is not None:
            self.flight.record(span.to_dict())
        if self._on_span is not None:
            self._on_span(span)

    # -- inspection ------------------------------------------------------------

    def names(self) -> list[str]:
        """Finished span names in completion order (test convenience)."""
        with self._lock:
            return [span.name for span in self.spans]

    def find(self, name: str) -> list[Span]:
        """All finished spans called *name*."""
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def for_trace(self, trace_id: str) -> list[Span]:
        """All spans recorded under *trace_id* (links not followed)."""
        with self._lock:
            return [span for span in self.spans if span.trace_id == trace_id]

    def to_dicts(self) -> list[dict]:
        with self._lock:
            return [span.to_dict() for span in self.spans]


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shares the :class:`Tracer` interface so instrumented code never
    branches on whether tracing is on; records nothing.  Context
    minting still works -- callers always hold a context object -- but
    every mint returns the same cached one.
    """

    enabled = False
    flight = None
    process = ""
    trace_id = ""
    spans: tuple = ()

    def now(self) -> float:
        return 0.0

    def span(self, name: str, sim_start: Optional[float] = None,
             sim_end: Optional[float] = None, parent=None,
             **attributes) -> _NullSpan:
        """Return the cached no-op span handle."""
        return _NULL_SPAN

    def record_span(self, name: str, sim_start: float, sim_end: float,
                    track: Optional[str] = None, slot: Optional[int] = None,
                    **attributes) -> None:
        return None

    def add_task_spans(self, track: str, spans: Iterable, *,
                       sim_offset: float = 0.0, name: str = "task") -> None:
        return None

    def mint(self, trace_id: str) -> TraceContext:
        """Return the cached context."""
        return _NULL_CONTEXT

    def fork(self, ctx: TraceContext, links: Sequence = ()) -> TraceContext:
        return ctx

    def record(self, ctx, name, wall_start, wall_end, process="",
               **attributes) -> None:
        return None

    def close(self, ctx, name, wall_start, wall_end, process="",
              **attributes) -> None:
        return None

    def event(self, ctx, name, **attributes) -> None:
        return None

    def ingest(self, span_dict: dict) -> None:
        return None

    def names(self) -> list[str]:
        return []

    def find(self, name: str) -> list[Span]:
        return []

    def for_trace(self, trace_id: str) -> list[Span]:
        return []

    def to_dicts(self) -> list[dict]:
        return []


#: The shared disabled tracer; instrumented code defaults to this.
NULL_TRACER = NullTracer()
