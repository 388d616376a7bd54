"""Tests for the span recorder's stack API, the Span record, and the
null tracer.  The context API is exercised in ``test_tracectx.py``."""

import json
import sys
import threading

import pytest

from repro.obs.export import write_jsonl
from repro.obs.tracectx import TraceContext, wire_span
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.traceview import iter_spans


class FakeClock:
    """A deterministic injectable clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = {span.name: span for span in tracer.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].depth == 1
        assert spans["outer"].parent_id is None
        assert spans["outer"].depth == 0
        # Stack spans outside any context share the tracer's own trace.
        assert {span.trace_id for span in tracer.spans} == {tracer.trace_id}
        # Inner finishes first; wall intervals nest.
        assert tracer.names() == ["inner", "outer"]
        assert spans["outer"].wall_start < spans["inner"].wall_start
        assert spans["inner"].wall_end < spans["outer"].wall_end
        # The live handle is the record itself.
        assert spans["outer"] is outer

    def test_siblings_share_a_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = (tracer.find(name)[0] for name in ("a", "b", "root"))
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_attributes_via_span_and_set(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job", machines=4) as span:
            span.set(rows=10)
            span.set(rows=12, extra="yes")
        (recorded,) = tracer.spans
        assert recorded.attributes == {
            "machines": 4, "rows": 12, "extra": "yes",
        }

    def test_set_sim_pins_the_simulated_interval(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("map") as span:
            span.set_sim(1.5, 4.0)
        (recorded,) = tracer.spans
        assert recorded.sim_start == 1.5
        assert recorded.sim_end == 4.0
        assert recorded.sim_duration == 2.5

    def test_set_sim_rejects_backwards_interval(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("bad") as span:
            with pytest.raises(ValueError, match="ends before"):
                span.set_sim(2.0, 1.0)

    def test_sim_duration_none_without_sim_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("wall-only"):
            pass
        assert tracer.spans[0].sim_duration is None

    def test_record_span_parents_under_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("reduce"):
            tracer.record_span("shuffle", 0.0, 2.0, tasks=8)
        shuffle = tracer.find("shuffle")[0]
        reduce = tracer.find("reduce")[0]
        assert shuffle.parent_id == reduce.span_id
        assert shuffle.trace_id == reduce.trace_id
        assert shuffle.depth == 1
        assert shuffle.sim_duration == 2.0
        assert shuffle.wall_duration == 0.0
        assert shuffle.attributes == {"tasks": 8}

    def test_add_task_spans_replays_a_schedule(self):
        class TaskSpan:
            def __init__(self, task, slot, start, end):
                self.task, self.slot = task, slot
                self.start, self.end = start, end

        tracer = Tracer(clock=FakeClock())
        tracer.add_task_spans(
            "map",
            [TaskSpan(0, 0, 0.0, 1.0), TaskSpan(1, 1, 0.5, 2.0)],
            sim_offset=10.0,
            name="map",
        )
        spans = tracer.find("map 1")
        assert len(spans) == 1
        assert spans[0].track == "map"
        assert spans[0].slot == 1
        assert spans[0].sim_start == 10.5
        assert spans[0].sim_end == 12.0

    def test_on_event_callback_fires_per_completion(self):
        seen = []
        tracer = Tracer(clock=FakeClock(), on_span=seen.append)
        with tracer.span("outer"):
            tracer.record_span("point", 0.0, 1.0)
        assert [span.name for span in seen] == ["point", "outer"]
        assert seen == tracer.spans

    def test_leaked_inner_span_does_not_corrupt_stack(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        tracer.span("leaked")  # never exited
        outer.__exit__(None, None, None)
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].depth == 0

    def test_late_exit_of_a_leaked_span_leaves_the_stack_alone(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        leaked = tracer.span("leaked")
        outer.__exit__(None, None, None)
        with tracer.span("after") as after:
            # The leaked span is no longer on the stack: exiting it now
            # must not pop "after".
            leaked.__exit__(None, None, None)
            with tracer.span("inner"):
                pass
        assert tracer.find("leaked")[0].depth == 1
        assert tracer.find("leaked")[0].parent_id == outer.span_id
        assert tracer.find("inner")[0].parent_id == after.span_id
        assert tracer.find("inner")[0].depth == 1

    def test_span_is_reusable_as_context_manager(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("manual")
        assert isinstance(span, Span)
        assert span.__enter__() is span
        span.__exit__(None, None, None)
        assert tracer.names() == ["manual"]

    def test_to_dict_omits_unset_optionals(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("plain"):
            pass
        data = tracer.spans[0].to_dict()
        assert "sim_start" not in data
        assert "track" not in data
        assert "attributes" not in data
        assert "links" not in data

        tracer.record_span("task 0", 0.0, 1.0, track="map", slot=3, n=1)
        data = tracer.spans[-1].to_dict()
        assert data["sim_start"] == 0.0
        assert data["track"] == "map"
        assert data["slot"] == 3
        assert data["attributes"] == {"n": 1}

    def test_threads_keep_their_own_nesting(self):
        # Each thread nests under its own open span; the shared span
        # list loses nothing under contention.
        tracer = Tracer()
        workers, children = 8, 200
        barrier = threading.Barrier(workers)

        def work(index):
            with tracer.span("root", owner=index):
                barrier.wait(timeout=30)
                for _ in range(children):
                    with tracer.span("child", owner=index):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(index,))
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert len(tracer.spans) == workers * (children + 1)
        roots = {
            span.attributes["owner"]: span for span in tracer.find("root")
        }
        assert len(roots) == workers
        assert all(root.parent_id is None for root in roots.values())
        for child in tracer.find("child"):
            assert child.parent_id == roots[child.attributes["owner"]].span_id
            assert child.depth == 1
        assert len({span.span_id for span in tracer.spans}) == len(
            tracer.spans
        )


class TestSpan:
    def test_dict_round_trip(self):
        span = Span(
            name="task 2", trace_id="t", span_id="a.2", parent_id="a.1",
            wall_start=1.0, wall_end=1.0, sim_start=0.5, sim_end=2.0,
            track="reduce", slot=3, process="pid7", depth=2,
            attributes={"task": 2},
        )
        data = span.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert Span.from_dict(data) == span

    def test_dict_omits_unset_optionals(self):
        data = Span(name="x", trace_id="q", span_id="a.1",
                    parent_id=None, wall_start=0.0,
                    wall_end=1.0).to_dict()
        assert set(data) == {
            "name", "trace_id", "span_id", "parent_id", "wall_start",
            "wall_end",
        }

    def test_stack_span_with_simulated_stamps_round_trips(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job", machines=2) as job:
            task = tracer.record_span(
                "task 1", 0.5, 2.0, track="map", slot=1, task=1
            )
            job.set_sim(0.0, 5.0)
        for span in (job, task):
            data = json.loads(json.dumps(span.to_dict()))
            assert Span.from_dict(data) == span

    def test_linked_context_span_round_trips(self):
        tracer = Tracer(clock=FakeClock(), process="daemon")
        primary = tracer.mint("q1")
        execute = tracer.close(
            tracer.fork(primary, links=[("q2", "b.9")]), "execute",
            1.0, 3.5, group=0,
        )
        data = json.loads(json.dumps(execute.to_dict()))
        assert data["links"] == [["q2", "b.9"]]
        assert Span.from_dict(data) == execute

    def test_worker_wire_span_round_trips(self):
        ctx = TraceContext(trace_id="q1", span_id="a.1")
        shipped = wire_span(ctx.to_wire(), "mp-task", 1.0, 2.0,
                            process="w123", task=4, attempt=0)
        span = Span.from_dict(shipped)
        assert span.to_dict() == shipped
        assert Span.from_dict(span.to_dict()) == span

    def test_iter_spans_reads_back_write_jsonl(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        root = tracer.mint("q1")
        with tracer.span("evaluate", parent=root):
            tracer.record_span("shuffle", 0.0, 1.0)
        tracer.close(root, "q1", 0.0, 9.0, status="ok")
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(tracer.spans, str(path)) == len(tracer.spans)
        read = [Span.from_dict(data) for data in iter_spans(str(path))]
        assert read == tracer.spans


class TestNullTracer:
    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        with tracer.span("anything", sim_start=0.0, attr=1) as span:
            span.set(more=2)
            span.set_sim(0.0, 1.0)
        assert tracer.record_span("x", 0.0, 1.0) is None
        tracer.add_task_spans("map", [])
        assert tracer.names() == []
        assert tracer.find("anything") == []
        assert list(tracer.spans) == []

    def test_disabled_flag_and_shared_handle(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True
        # One cached handle: no allocation per span on the disabled path.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_mint_still_yields_a_context(self):
        ctx = NULL_TRACER.mint("q1")
        assert isinstance(ctx, TraceContext)
        assert NULL_TRACER.fork(ctx) is ctx
        # One cached context: no allocation per mint (the daemon mints
        # on every arrival).
        assert NULL_TRACER.mint("q2") is ctx

    def test_context_api_is_a_noop(self):
        tracer = NullTracer()
        ctx = tracer.mint("q1")
        assert tracer.close(ctx, "query", 0.0, 1.0) is None
        assert tracer.record(ctx, "map", 0.0, 1.0) is None
        assert tracer.event(ctx, "shed") is None
        assert tracer.ingest({"name": "x"}) is None
        assert tracer.find("query") == []
        assert tracer.for_trace("q1") == []
        assert tracer.to_dicts() == []
