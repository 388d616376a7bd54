"""Observability: tracing, one metric registry, run manifests, exporters.

The paper's argument is about *where time goes* -- per-phase makespans,
per-reducer loads, optimizer predictions versus reality.  This package
makes those signals first-class and machine-readable:

* :class:`Tracer` -- the one span recorder: :class:`Span` records
  carrying wall-clock *and* simulated-clock timestamps plus structured
  attributes, opened through a nesting stack (engine, optimizer) or
  through explicit :class:`TraceContext` parenting across the daemon,
  share groups and worker processes (one causally-linked tree per
  query, share groups joined via span links); disabled code paths use
  the no-op :data:`NULL_TRACER` at near-zero cost;
* exporters -- JSONL span files, Chrome trace-event JSON (viewable in
  Perfetto / ``chrome://tracing`` with per-slot task tracks and one
  wall timeline per process), and a live ``--verbose`` progress sink;
  ``repro trace --spans`` reads span files back and renders one
  query's tree (:func:`render_trace`);
* :class:`RunManifest` -- one JSON artifact per evaluation (plan,
  config, counters, breakdown, final telemetry frame, environment, git
  sha) consumed by ``repro stats``;
* :class:`CalibrationReport` -- the cost model's predicted max load,
  shuffle volume and block count joined against what the run measured
  (Formula 2/4 relative error, per-reducer load histogram);
* :func:`explain_plan` -- the optimizer's full decision trail (key
  derivation, candidate scorecards, cf cost curves, sampled dispatch)
  rendered as text, JSON or DOT by ``repro explain``;
* :func:`diff_manifests` -- field-by-field comparison of two run
  manifests with regression thresholds, behind ``repro diff``;
* :func:`configure_logging` -- one consistent handler for the whole
  ``repro.*`` logger hierarchy;
* :class:`TelemetryRegistry` -- the one metric registry: counters
  (job counters among them), streaming histograms (reducer loads),
  EWMA rate meters, windowed gauges (optimizer decisions, calibration
  errors), phase progress, and per-worker resource sections merged
  from the multiprocess channel; :data:`NULL_TELEMETRY` is its no-op
  twin.  Exposed as Prometheus text (:func:`prometheus_text`), a JSONL
  frame log (:class:`TelemetryLogWriter` /
  :func:`read_telemetry_frames`), and the ``repro top`` dashboard (:func:`render_frame` /
  :func:`render_replay`);
* :class:`WallProfiler` -- a sampling wall-clock profiler emitting
  collapsed stacks for flame graphs (``run --profile``);
* :class:`QueryLedger` / :class:`LedgerBook` -- the latency
  attribution ledger: every completed query's wall time tiled into
  phases that sum to its end-to-end latency;
* :class:`SloPolicy` / :class:`SloTracker` -- per-tenant latency
  objectives with windowed error-budget burn rates;
* :class:`FlightRecorder` -- a bounded ring of recent spans/events
  dumped as a self-contained bundle on error, shed storm, deadline
  miss, or ``SIGUSR2``.

See ``docs/observability.md`` for a walkthrough.
"""

from repro.obs.calibration import (
    CalibrationReport,
    ComponentCalibration,
    load_histogram,
    relative_error,
)
from repro.obs.diff import FieldDelta, RunDiff, diff_manifests
from repro.obs.explain import (
    CandidateExplanation,
    ComponentExplanation,
    QueryExplanation,
    explain_plan,
    render_dot,
    render_text,
)
from repro.obs.export import (
    chrome_trace_events,
    progress_sink,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.exposition import (
    TelemetryLogWriter,
    prometheus_text,
    read_telemetry_frames,
)
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import PHASES, LedgerBook, QueryLedger
from repro.obs.logconfig import configure_logging
from repro.obs.manifest import (
    RunManifest,
    counters_from_dict,
    counters_to_dict,
    environment_info,
)
from repro.obs.sampler import WallProfiler
from repro.obs.slo import SloPolicy, SloTracker
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    RateMeter,
    ResourceSample,
    StreamingHistogram,
    TelemetryRegistry,
    WindowedGauge,
    WorkerDelta,
    sample_resources,
)
from repro.obs.top import render_frame, render_replay
from repro.obs.tracectx import SpanCollector, TraceContext
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.traceview import (
    collect_trace,
    find_orphans,
    iter_spans,
    list_traces,
    render_trace,
)

# The wall-clock benchmark resolves this name for its traced serving
# runs; the benchmark change that next edits bench/workloads.py retires it.
QueryTracer = Tracer

__all__ = [
    "CalibrationReport",
    "CandidateExplanation",
    "ComponentCalibration",
    "ComponentExplanation",
    "FieldDelta",
    "FlightRecorder",
    "LedgerBook",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullTelemetry",
    "NullTracer",
    "PHASES",
    "QueryExplanation",
    "QueryLedger",
    "RateMeter",
    "ResourceSample",
    "RunDiff",
    "RunManifest",
    "SloPolicy",
    "SloTracker",
    "Span",
    "SpanCollector",
    "StreamingHistogram",
    "TelemetryLogWriter",
    "TelemetryRegistry",
    "TraceContext",
    "Tracer",
    "WallProfiler",
    "WindowedGauge",
    "WorkerDelta",
    "chrome_trace_events",
    "collect_trace",
    "configure_logging",
    "counters_from_dict",
    "counters_to_dict",
    "diff_manifests",
    "environment_info",
    "explain_plan",
    "find_orphans",
    "iter_spans",
    "list_traces",
    "load_histogram",
    "progress_sink",
    "prometheus_text",
    "read_telemetry_frames",
    "relative_error",
    "render_dot",
    "render_frame",
    "render_replay",
    "render_text",
    "render_trace",
    "sample_resources",
    "write_chrome_trace",
    "write_jsonl",
]
