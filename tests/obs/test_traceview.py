"""Tests for trace-tree reconstruction, rendering, and export.

Spans are hand-built dicts, so the shapes are explicit: a daemon-side
root and execution subtree, worker task spans, and a share-group
partner trace joined by links.
"""

import io
import json
from pathlib import Path

from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.tracer import Span
from repro.obs.traceview import (
    collect_trace,
    find_orphans,
    iter_spans,
    list_traces,
    render_trace,
)

#: A span file written by ``repro serve --trace-spans`` before the two
#: span records were merged (no simulated stamps, no depth): old files
#: must keep loading and rendering.
LEGACY_SPAN_FILE = Path(__file__).parent / "data" / "serve_spans_v1.jsonl"


def span(name, trace, span_id, parent=None, start=0.0, end=1.0,
         process="daemon", links=(), **attributes):
    data = {
        "name": name, "trace_id": trace, "span_id": span_id,
        "parent_id": parent, "wall_start": start, "wall_end": end,
        "process": process,
    }
    if links:
        data["links"] = [list(pair) for pair in links]
    if attributes:
        data["attributes"] = attributes
    return data


def shared_group_spans():
    """Two queries q1/q2 sharing one execution span (links to q2)."""
    return [
        span("query", "q1", "a.1", start=0.0, end=5.0),
        span("query", "q2", "a.2", start=0.1, end=5.0),
        span("execute", "q1", "a.3", parent="a.1", start=1.0, end=4.0,
             links=[("q2", "a.2")]),
        span("mp-task", "q1", "b.1", parent="a.3", start=1.5, end=3.0,
             process="w9"),
    ]


class TestIterSpans:
    def test_streams_jsonl(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(5):
                handle.write(json.dumps(
                    span("s", "q", f"a.{index}")) + "\n")
        assert len(list(iter_spans(str(path)))) == 5

    def test_tail_is_bounded(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(100):
                handle.write(json.dumps(
                    span("s", "q", f"a.{index}")) + "\n")
        tailed = list(iter_spans(str(path), tail=3))
        assert [s["span_id"] for s in tailed] == ["a.97", "a.98", "a.99"]

    def test_reads_flight_bundle_single_line(self):
        bundle = {"kind": "flight-recorder", "reason": "error",
                  "spans": [span("s", "q", "a.1"), {"event": "shed"}]}
        spans = list(iter_spans(io.StringIO(json.dumps(bundle))))
        assert [s["span_id"] for s in spans] == ["a.1"]

    def test_reads_pretty_printed_bundle(self):
        bundle = {"spans": [span("s", "q", "a.1"),
                            span("s", "q", "a.2")]}
        text = json.dumps(bundle, indent=2)
        assert "\n" in text
        spans = list(iter_spans(io.StringIO(text), tail=1))
        assert [s["span_id"] for s in spans] == ["a.2"]

    def test_empty_source(self):
        assert list(iter_spans(io.StringIO(""))) == []

    def test_blank_lines_skipped(self):
        text = json.dumps(span("s", "q", "a.1")) + "\n\n" + json.dumps(
            span("s", "q", "a.2")) + "\n"
        assert len(list(iter_spans(io.StringIO(text)))) == 2


class TestTreeReconstruction:
    def test_find_orphans(self):
        spans = [span("query", "q1", "a.1"),
                 span("child", "q1", "a.2", parent="a.1"),
                 span("lost", "q1", "a.3", parent="missing")]
        assert [s["span_id"] for s in find_orphans(spans)] == ["a.3"]

    def test_connected_trace_has_no_orphans(self):
        assert find_orphans(shared_group_spans()) == []

    def test_list_traces(self):
        summary = list_traces(shared_group_spans())
        assert summary["q1"] == {"root": "query", "spans": 3}
        assert summary["q2"] == {"root": "query", "spans": 1}

    def test_collect_primary_trace(self):
        tree = collect_trace(shared_group_spans(), "q1")
        assert {s["span_id"] for s in tree} == {"a.1", "a.3", "b.1"}

    def test_collect_follows_links_for_partner(self):
        # q2's view must include the shared execution subtree that
        # lives in q1's trace, pulled in via the link plus descendants.
        tree = collect_trace(shared_group_spans(), "q2")
        assert {s["span_id"] for s in tree} == {"a.2", "a.3", "b.1"}

    def test_collect_unknown_trace_is_empty(self):
        assert collect_trace(shared_group_spans(), "nope") == []


class TestRender:
    def test_renders_nested_tree(self):
        text = render_trace(shared_group_spans(), "q1")
        lines = text.splitlines()
        assert lines[0] == "trace q1 · 3 spans"
        assert "query" in lines[1]
        # Children indent under their parents.
        assert lines[2].startswith("    execute")
        assert lines[3].startswith("      mp-task")
        assert "[w9]" in lines[3]

    def test_linked_span_reparents_in_partner_view(self):
        text = render_trace(shared_group_spans(), "q2")
        lines = text.splitlines()
        assert lines[1].lstrip().startswith("query")
        assert lines[2].lstrip().startswith("execute")
        assert "⇢shared" in lines[2]
        assert lines[3].lstrip().startswith("mp-task")

    def test_missing_trace_message(self):
        assert render_trace([], "q9") == "(no spans for trace q9)"

    def test_attributes_shown_inline(self):
        spans = [span("query", "q1", "a.1", status="ok", rows=42)]
        text = render_trace(spans, "q1")
        assert "status=ok" in text
        assert "rows=42" in text


class TestChromeExport:
    def test_one_viewer_process_per_process_tag(self):
        events = chrome_trace_events([
            Span.from_dict(data)
            for data in collect_trace(shared_group_spans(), "q1")
        ])
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"daemon", "w9"}
        assert len(slices) == 3
        by_name = {e["name"]: e for e in slices}
        assert by_name["mp-task"]["pid"] != by_name["query"]["pid"]
        # Timestamps are relative to the earliest span, in microseconds.
        assert by_name["query"]["ts"] == 0.0
        assert by_name["execute"]["ts"] == 1_000_000.0

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(
            [Span.from_dict(data) for data in shared_group_spans()],
            str(path),
        )
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert len(data["traceEvents"]) == count
        assert data["displayTimeUnit"] == "ms"


class TestLegacySpanFile:
    def test_old_serve_span_file_still_renders(self):
        spans = list(iter_spans(str(LEGACY_SPAN_FILE)))
        assert list_traces(spans) == {
            "q1": {"root": "weblog_ctr", "spans": 8},
            "q2": {"root": "weblog", "spans": 3},
        }
        assert find_orphans(spans) == []
        # q2 reaches the shared execution in q1's trace via its link.
        lines = render_trace(spans, "q2").splitlines()
        assert lines[0] == "trace q2 · 8 spans"
        assert "⇢shared" in render_trace(spans, "q2")
        records = [Span.from_dict(data) for data in spans]
        assert [span.to_dict() for span in records] == spans
        events = chrome_trace_events(records)
        processes = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert processes == {"daemon", "slot0"}
