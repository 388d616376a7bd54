"""Span exporters: JSONL, Chrome trace-event JSON, live progress.

Views of the one :class:`~repro.obs.tracer.Span` stream, whichever API
recorded it:

* :func:`write_jsonl` -- one JSON object per span, the stable
  machine-readable span file that ``repro trace --spans`` reads back
  (:func:`~repro.obs.traceview.iter_spans`);
* :func:`write_chrome_trace` / :func:`chrome_trace_events` -- the Chrome
  trace-event format (open ``trace.json`` at https://ui.perfetto.dev or
  ``chrome://tracing``).  Spans with simulated timestamps render on a
  "simulated cluster" process: the phase span tree plus one thread row
  per (track, slot) pair, so map and reduce task placements become
  per-slot tracks.  Every wall-clock interval also renders on the wall
  timeline, one trace-viewer process per ``process`` tag -- the daemon,
  each execution slot, each worker process -- rebased to the earliest
  span;
* :func:`progress_sink` -- a human-readable live sink for ``--verbose``
  runs, printing each span as it finishes.

All timestamps in the Chrome export are microseconds, as the format
requires; simulated seconds are scaled by 1e6.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterable, Optional, Sequence

from repro.obs.tracer import Span

__all__ = [
    "chrome_trace_events",
    "progress_sink",
    "write_chrome_trace",
    "write_jsonl",
]

#: Process id of the simulated timeline; wall processes follow it.
_PID_SIM = 1

#: Seconds -> trace-event microseconds.
_US = 1e6


def write_jsonl(spans: Iterable[Span], target: str | IO[str]) -> int:
    """Write one JSON object per span; returns the span count.

    *target* is a path or an open text stream (flushed afterwards, so
    a live ``Tracer(on_span=...)`` sink can write one span per call).
    """
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_jsonl(spans, handle)
    count = 0
    for span in spans:
        target.write(json.dumps(span.to_dict(), sort_keys=True))
        target.write("\n")
        count += 1
    target.flush()
    return count


def _track_threads(spans: Sequence[Span]) -> dict[tuple[str, int], int]:
    """Assign one simulated-process thread id per (track, slot) row.

    Thread 0 is the phase tree; task tracks follow, grouped by track
    name then slot so Perfetto shows ``map slot 0..n`` above
    ``reduce slot 0..n``.
    """
    rows = sorted(
        {(span.track, span.slot or 0) for span in spans if span.track is not None}
    )
    return {row: index + 1 for index, row in enumerate(rows)}


def _meta(kind: str, pid: int, tid: int, name: str) -> dict:
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def chrome_trace_events(spans: Sequence[Span]) -> list[dict]:
    """Convert spans to a Chrome trace-event list.

    Spans with simulated timestamps land on the "simulated cluster"
    process; every span that is a wall-clock interval -- all but the
    per-slot task placements, which exist only in simulated time --
    also lands on the wall process of its ``process`` tag, with
    timestamps rebased to the earliest such span.
    """
    out: list[dict] = []
    simulated = [
        span for span in spans
        if span.sim_start is not None and span.sim_end is not None
    ]
    threads = _track_threads(simulated)
    if simulated:
        out.append(_meta("process_name", _PID_SIM, 0, "simulated cluster"))
        out.append(_meta("thread_name", _PID_SIM, 0, "phases"))
        for (track, slot), tid in threads.items():
            out.append(
                _meta("thread_name", _PID_SIM, tid, f"{track} slot {slot}")
            )
    walled = [span for span in spans if span.track is None]
    processes = sorted({span.process for span in walled})
    pids = {
        process: _PID_SIM + 1 + index
        for index, process in enumerate(processes)
    }
    for process, pid in pids.items():
        out.append(_meta("process_name", pid, 0, process or "wall clock"))

    def args(span: Span) -> dict:
        return {
            key: value
            for key, value in span.attributes.items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }

    for span in simulated:
        tid = 0
        if span.track is not None:
            tid = threads[(span.track, span.slot or 0)]
        out.append(
            {
                "name": span.name,
                "cat": span.track or "phase",
                "ph": "X",
                "ts": span.sim_start * _US,
                "dur": (span.sim_end - span.sim_start) * _US,
                "pid": _PID_SIM,
                "tid": tid,
                "args": args(span),
            }
        )
    wall_base = min((span.wall_start for span in walled), default=0.0)
    for span in walled:
        out.append(
            {
                "name": span.name,
                "cat": "wall",
                "ph": "X",
                "ts": (span.wall_start - wall_base) * _US,
                "dur": span.wall_duration * _US,
                "pid": pids[span.process],
                "tid": 0,
                "args": args(span),
            }
        )
    return out


def write_chrome_trace(spans: Sequence[Span], target: str | IO[str]) -> int:
    """Write the Chrome trace JSON; returns the trace-event count.

    *target* is a path or an open text stream; the result loads in
    Perfetto or ``chrome://tracing`` unmodified.
    """
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_chrome_trace(spans, handle)
    trace_events = chrome_trace_events(spans)
    json.dump(
        {"traceEvents": trace_events, "displayTimeUnit": "ms"},
        target,
        indent=1,
    )
    target.write("\n")
    return len(trace_events)


def progress_sink(stream: Optional[IO[str]] = None, max_depth: int = 3):
    """A live sink for ``Tracer(on_span=...)``: one line per span.

    Prints indented span completions with wall and simulated durations;
    spans deeper than *max_depth* (per-task, per-block noise) are
    suppressed.  Returns the callback.
    """
    out = stream if stream is not None else sys.stderr

    def sink(span: Span) -> None:
        if span.depth > max_depth or span.track is not None:
            return
        clocks = [f"wall {span.wall_duration * 1e3:.1f}ms"]
        if span.sim_duration is not None:
            clocks.append(f"sim {span.sim_duration:.4f}s")
        detail = "".join(
            f" {key}={value}"
            for key, value in span.attributes.items()
            if isinstance(value, (str, int, float, bool))
        )
        print(
            f"{'  ' * span.depth}{span.name} "
            f"[{', '.join(clocks)}]{detail}",
            file=out,
        )

    return sink
