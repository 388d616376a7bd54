"""Tests for the JSONL, Chrome-trace and progress exporters."""

import io
import json

from repro.obs.export import (
    chrome_trace_events,
    progress_sink,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


def traced_run():
    """A small but representative span tree on a deterministic clock."""
    tracer = Tracer(clock=FakeClock())
    with tracer.span("job", machines=2) as job:
        with tracer.span("map") as map_span:
            map_span.set_sim(0.0, 2.0)
        tracer.record_span("task 0", 0.0, 1.0, track="map", slot=0)
        tracer.record_span("task 1", 0.5, 2.0, track="map", slot=1)
        with tracer.span("reduce") as reduce_span:
            reduce_span.set_sim(2.0, 5.0)
            tracer.record_span("shuffle", 2.0, 3.0)
        job.set_sim(0.0, 5.0)
    return tracer


class TestJsonl:
    def test_round_trips_event_dicts(self, tmp_path):
        tracer = traced_run()
        path = tmp_path / "events.jsonl"
        count = write_jsonl(tracer.spans, str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.spans)
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == tracer.names()
        by_name = {p["name"]: p for p in parsed}
        assert by_name["task 1"]["track"] == "map"
        assert by_name["task 1"]["slot"] == 1
        assert by_name["job"]["attributes"] == {"machines": 2}

    def test_accepts_open_stream(self):
        tracer = traced_run()
        stream = io.StringIO()
        count = write_jsonl(tracer.spans, stream)
        assert count == len(stream.getvalue().splitlines())


class TestChromeTrace:
    def test_valid_json_with_metadata(self, tmp_path):
        tracer = traced_run()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(tracer.spans, str(path))
        data = json.loads(path.read_text())
        assert set(data) == {"traceEvents", "displayTimeUnit"}
        assert len(data["traceEvents"]) == count
        phases = {e["ph"] for e in data["traceEvents"]}
        assert phases == {"M", "X"}

    def test_simulated_timestamps_in_microseconds(self):
        events = chrome_trace_events(traced_run().spans)
        sim = {
            e["name"]: e for e in events
            if e["ph"] == "X" and e["pid"] == 1
        }
        assert sim["map"]["ts"] == 0.0
        assert sim["map"]["dur"] == 2.0 * 1e6
        assert sim["shuffle"]["ts"] == 2.0 * 1e6
        assert sim["shuffle"]["dur"] == 1.0 * 1e6

    def test_task_tracks_get_one_thread_per_slot(self):
        events = chrome_trace_events(traced_run().spans)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        }
        assert thread_names[0] == "phases"
        assert "map slot 0" in thread_names.values()
        assert "map slot 1" in thread_names.values()
        tasks = {
            e["name"]: e["tid"]
            for e in events
            if e["ph"] == "X" and e.get("cat") == "map"
        }
        assert tasks["task 0"] != tasks["task 1"]
        assert 0 not in tasks.values()

    def test_wall_process_rebased_to_zero(self):
        events = chrome_trace_events(traced_run().spans)
        wall = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
        assert wall, "expected wall-clock events"
        assert min(e["ts"] for e in wall) == 0.0
        # Task placements exist only in simulated time.
        assert all(not e["name"].startswith("task ") for e in wall)

    def test_empty_event_list_still_valid(self):
        stream = io.StringIO()
        count = write_chrome_trace([], stream)
        data = json.loads(stream.getvalue())
        assert len(data["traceEvents"]) == count
        assert all(e["ph"] == "M" for e in data["traceEvents"])

    def test_non_scalar_attributes_dropped_from_args(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("plan") as span:
            span.set(key="ok", loads=[1, 2, 3])
        events = chrome_trace_events(tracer.spans)
        plan = next(e for e in events if e.get("name") == "plan"
                    and e["ph"] == "X")
        assert plan["args"] == {"key": "ok"}


class TestProgressSink:
    def test_prints_shallow_spans_only(self):
        stream = io.StringIO()
        tracer = Tracer(
            clock=FakeClock(), on_span=progress_sink(stream, max_depth=1)
        )
        with tracer.span("job"):
            with tracer.span("map") as map_span:
                map_span.set_sim(0.0, 2.0)
                with tracer.span("too-deep"):
                    pass
            tracer.record_span("task 0", 0.0, 1.0, track="map", slot=0)
        out = stream.getvalue()
        assert "job" in out
        assert "  map" in out
        assert "sim 2.0000s" in out
        assert "too-deep" not in out
        assert "task 0" not in out


class TestChromeTraceConcurrency:
    def test_concurrent_same_name_tasks_get_distinct_rows(self):
        # Two overlapping attempts of the SAME task name (speculation)
        # on different slots must land on different timeline rows and
        # both survive the export -- no dedup by name.
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job") as job:
            tracer.record_span("task 0", 0.0, 2.0, track="map", slot=0)
            tracer.record_span("task 0", 0.5, 1.5, track="map", slot=1)
            job.set_sim(0.0, 2.0)
        events = chrome_trace_events(tracer.spans)
        attempts = [
            e for e in events if e["ph"] == "X" and e["name"] == "task 0"
        ]
        assert len(attempts) == 2
        assert attempts[0]["tid"] != attempts[1]["tid"]

    def test_sequential_tasks_share_their_slot_row(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job") as job:
            tracer.record_span("task 0", 0.0, 1.0, track="map", slot=0)
            tracer.record_span("task 1", 1.0, 2.0, track="map", slot=0)
            job.set_sim(0.0, 2.0)
        events = chrome_trace_events(tracer.spans)
        tids = {
            e["name"]: e["tid"]
            for e in events
            if e["ph"] == "X" and e["name"].startswith("task ")
        }
        assert tids["task 0"] == tids["task 1"]

    def test_same_slot_index_on_different_tracks_distinct(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job") as job:
            tracer.record_span("task m", 0.0, 1.0, track="map", slot=0)
            tracer.record_span("task r", 1.0, 2.0, track="reduce", slot=0)
            job.set_sim(0.0, 2.0)
        events = chrome_trace_events(tracer.spans)
        rows = {
            e["name"]: e["tid"]
            for e in events
            if e["ph"] == "X" and e["name"].startswith("task ")
        }
        assert rows["task m"] != rows["task r"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == 1
        }
        assert names[rows["task m"]] == "map slot 0"
        assert names[rows["task r"]] == "reduce slot 0"


class TestProgressSinkDepth:
    def nested_run(self, stream, max_depth):
        tracer = Tracer(
            clock=FakeClock(),
            on_span=progress_sink(stream, max_depth=max_depth),
        )
        with tracer.span("d0"):
            with tracer.span("d1"):
                with tracer.span("d2"):
                    with tracer.span("d3"):
                        with tracer.span("d4"):
                            pass
        return stream.getvalue()

    def test_default_depth_cutoff_is_inclusive(self):
        stream = io.StringIO()
        out = self.nested_run(stream, max_depth=3)
        for name in ("d0", "d1", "d2", "d3"):
            assert name in out
        assert "d4" not in out

    def test_zero_depth_keeps_only_the_root(self):
        stream = io.StringIO()
        out = self.nested_run(stream, max_depth=0)
        assert "d0" in out
        assert "d1" not in out

    def test_track_spans_suppressed_at_any_depth(self):
        stream = io.StringIO()
        tracer = Tracer(
            clock=FakeClock(),
            on_span=progress_sink(stream, max_depth=99),
        )
        with tracer.span("job"):
            tracer.record_span("task 0", 0.0, 1.0, track="map", slot=0)
        out = stream.getvalue()
        assert "job" in out
        assert "task 0" not in out

    def test_indentation_tracks_depth(self):
        stream = io.StringIO()
        out = self.nested_run(stream, max_depth=2)
        lines = out.splitlines()
        # Spans complete leaf-first, so deepest printed line comes first.
        assert lines[0].startswith("    d2")
        assert lines[1].startswith("  d1")
        assert lines[2].startswith("d0")
