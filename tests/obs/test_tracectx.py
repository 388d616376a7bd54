"""Tests for the trace plane's wire format and the tracer's context API.

All clocks are injected fakes; span-id uniqueness is structural (pid
prefix + process-local counter), so no test depends on timing.
"""

import json

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.tracectx import (
    SpanCollector,
    TraceContext,
    context_from_wire,
    fork_context,
    new_span_id,
    wire_span,
)
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestTraceContext:
    def test_is_frozen(self):
        ctx = TraceContext(trace_id="q1", span_id="a.1")
        with pytest.raises(AttributeError):
            ctx.trace_id = "q2"

    def test_wire_round_trip(self):
        ctx = TraceContext(
            trace_id="q1",
            span_id="a.1",
            parent_id="a.0",
            links=(("q2", "b.7"),),
        )
        wire = ctx.to_wire()
        assert json.loads(json.dumps(wire)) == wire
        assert context_from_wire(wire) == ctx

    def test_wire_omits_unset_optionals(self):
        wire = TraceContext(trace_id="q1", span_id="a.1").to_wire()
        assert wire == {"trace_id": "q1", "span_id": "a.1"}
        rebuilt = context_from_wire(wire)
        assert rebuilt.parent_id is None
        assert rebuilt.links == ()

    def test_fork_parents_under_source_span(self):
        root = TraceContext(trace_id="q1", span_id="a.1")
        child = fork_context(root, links=[("q2", "b.7")])
        assert child.trace_id == "q1"
        assert child.parent_id == "a.1"
        assert child.span_id != root.span_id
        assert child.links == (("q2", "b.7"),)

    def test_span_ids_unique_and_pid_prefixed(self):
        ids = {new_span_id() for _ in range(100)}
        assert len(ids) == 100
        assert all("." in span_id for span_id in ids)


class TestQueryTracer:
    """The context API: explicit parenting for per-query trace trees."""

    def test_close_records_the_context_itself(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.mint("q1")
        span = tracer.close(root, "query", 0.0, 2.0, status="ok")
        assert span.span_id == root.span_id
        assert span.parent_id is None
        assert span.trace_id == "q1"
        assert span.attributes == {"status": "ok"}
        assert span.wall_duration == pytest.approx(2.0)

    def test_record_makes_a_child(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.mint("q1")
        child = tracer.record(root, "planning", 0.0, 1.0)
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_interleaved_queries_do_not_cross_link(self):
        tracer = Tracer(clock=FakeClock())
        a, b = tracer.mint("qa"), tracer.mint("qb")
        tracer.record(a, "map", 0.0, 1.0)
        tracer.record(b, "map", 0.0, 1.0)
        tracer.close(b, "query", 0.0, 2.0)
        tracer.close(a, "query", 0.0, 2.0)
        for trace_id, root in (("qa", a), ("qb", b)):
            spans = tracer.for_trace(trace_id)
            assert len(spans) == 2
            assert {s.parent_id for s in spans} == {None, root.span_id}

    def test_event_is_instantaneous_at_clock_now(self):
        clock = FakeClock(5.0)
        tracer = Tracer(clock=clock)
        span = tracer.event(tracer.mint("q1"), "shed", reason="queue-full")
        assert span.wall_start == span.wall_end == 5.0
        assert span.attributes == {"reason": "queue-full"}

    def test_sink_and_flight_see_every_span(self):
        seen = []
        flight = FlightRecorder(capacity=8)
        tracer = Tracer(clock=FakeClock(), on_span=seen.append,
                        flight=flight)
        tracer.close(tracer.mint("q1"), "query", 0.0, 1.0)
        assert len(seen) == 1
        assert seen[0].trace_id == "q1"
        assert len(flight) == 1

    def test_ingest_absorbs_wire_spans_verbatim(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.fork(tracer.mint("q1"))
        shipped = wire_span(ctx.to_wire(), "mp-task", 1.0, 2.0,
                            process="w123", task=4)
        span = tracer.ingest(shipped)
        assert span.trace_id == "q1"
        assert span.parent_id == ctx.span_id
        assert span.process == "w123"
        assert span.attributes == {"task": 4}
        assert tracer.find("mp-task") == [span]

    def test_close_carries_links(self):
        tracer = Tracer(clock=FakeClock())
        primary = tracer.mint("q1")
        exec_ctx = tracer.fork(primary, links=[("q2", "b.9")])
        span = tracer.close(exec_ctx, "execute", 0.0, 1.0)
        assert span.links == (("q2", "b.9"),)
        assert span.parent_id == primary.span_id

    def test_stack_spans_nest_under_a_context(self):
        # A stack span given a context joins that query's trace, and
        # the spans opened inside it follow; both APIs share one list
        # and one callback.
        seen = []
        tracer = Tracer(clock=FakeClock(), on_span=seen.append)
        root = tracer.mint("q1")
        with tracer.span("batch-group", parent=root) as group:
            with tracer.span("job"):
                tracer.record_span("shuffle", 0.0, 1.0)
            tracer.record(group, "retry", 0.0, 0.5)
        tracer.close(root, "q1", 0.0, 2.0)
        assert {span.trace_id for span in tracer.spans} == {"q1"}
        assert group.parent_id == root.span_id
        (job,) = tracer.find("job")
        assert job.parent_id == group.span_id
        assert tracer.find("shuffle")[0].parent_id == job.span_id
        assert tracer.find("retry")[0].parent_id == group.span_id
        assert seen == tracer.spans
        assert len(tracer.spans) == 5


class TestSpanCollector:
    def test_reshipped_window_is_deduped(self):
        received = []
        collector = SpanCollector(received.append)
        window = [(1, {"span_id": "w.1"}), (2, {"span_id": "w.2"})]
        assert collector.merge("w1", window) == 2
        # At-least-once channel: the whole window arrives again, grown.
        window.append((3, {"span_id": "w.3"}))
        assert collector.merge("w1", window) == 1
        assert [s["span_id"] for s in received] == ["w.1", "w.2", "w.3"]

    def test_workers_tracked_independently(self):
        received = []
        collector = SpanCollector(received.append)
        collector.merge("w1", [(5, {"span_id": "a"})])
        assert collector.merge("w2", [(1, {"span_id": "b"})]) == 1
        assert len(received) == 2

    def test_empty_merge_is_harmless(self):
        received = []
        collector = SpanCollector(received.append)
        assert collector.merge("w1", []) == 0
        assert received == []
