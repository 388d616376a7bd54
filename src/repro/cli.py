"""Command-line interface.

Ten subcommands, most operating on workflow scripts in the textual
query language (see :mod:`repro.query.parser`):

* ``repro demo`` -- run the paper's weblog example end to end;
* ``repro plan QUERY.cq`` -- show the derived distribution keys, the
  candidate schemes and the optimizer's choice, without evaluating;
* ``repro explain QUERY.cq`` -- the optimizer's full decision trail:
  per-measure key derivation, every candidate with its provenance and
  rejection reason, the clustering-factor cost curve, and the sampled
  dispatch tallies; rendered as text, JSON, or Graphviz DOT.  With
  ``--batch A.cq B.cq ...`` it instead shows the batch planner's
  share-group formation trail: which queries share one shuffle and why;
* ``repro run QUERY.cq`` -- evaluate the query over generated data on
  the simulated cluster, printing the execution report (optionally
  exporting results to CSV);
* ``repro batch A.cq B.cq ...`` -- co-evaluate several queries: the
  batch planner partitions them into share groups, each group runs as
  ONE map/shuffle/reduce, and ``--cache-dir DIR`` persists materialized
  measures across runs so repeated batches skip already-computed work;
  per-query answers are bit-identical to standalone ``run``s;
* ``repro append`` -- incremental view maintenance: generate the data
  as watermarked partitions, warm the measure cache on the first, then
  *append* the rest one at a time, patching cached answers forward
  (delta fold for distributive/algebraic measures, bounded regional
  repair for sibling windows) instead of recomputing; ``--verify``
  asserts every maintained table is bit-identical to a cold recompute,
  and ``--manifest`` records the per-measure maintenance report
  (schema v8 ``incremental`` section);
* ``repro trace QUERY.cq --out trace.json`` -- evaluate with full
  tracing: writes a Chrome trace-event file (open in Perfetto or
  ``chrome://tracing``), a run manifest (including the cost-model
  calibration report), and optionally the spans as JSONL (``--events``);
  ``repro trace --spans SPANS.jsonl --query TRACE_ID`` instead views
  span trees recorded by ``trace --events`` or ``serve --trace-spans``
  (or a flight-recorder bundle), rendering one trace's tree as ASCII
  or exporting it as Chrome trace JSON with ``--chrome``;
* ``repro stats MANIFEST.json`` -- summarize a previously written run
  manifest (schemas v1-v8, including batch/cache/worker/serving/
  tracing/slo/incremental sections; manifests newer than the reader
  degrade to the known fields with a one-line warning);
  ``repro stats --watch TELEMETRY.jsonl`` instead tails a live
  telemetry log and re-renders the dashboard until the final frame;
* ``repro diff A.json B.json`` -- compare two run manifests field by
  field and flag regressions beyond a threshold (exit status 1 when
  any are found);
* ``repro top`` -- the live dashboard over a telemetry JSONL log:
  ``--follow LOG`` tails a log a concurrent ``run --telemetry LOG`` is
  writing (refreshing in place on a tty), ``--replay LOG`` renders a
  finished log frame by frame.

``run`` and ``trace`` also take ``--chaos SEED`` (inject a seeded
random :class:`~repro.faults.FaultPlan` -- crashes, task failures,
stragglers, lost partitions -- and print the per-phase recovery
accounting) and ``--fail-machines 0,3`` (mark machines dead before the
run; if every replica of a block lands on dead machines the run aborts
with an actionable one-line error).  ``run``/``trace``/``batch`` take
``--telemetry FILE`` (stream live telemetry frames to a JSONL log that
``repro top`` can follow), ``--prom FILE`` (write a Prometheus
text-format snapshot of the final telemetry state), and ``run``/
``trace`` take ``--profile FILE`` (sample the driver's wall-clock
stacks and write collapsed stacks for flame graphs).

Every subcommand takes ``--verbose``/``-v`` (repeatable) and
``--quiet``/``-q`` to control the ``repro.*`` log level.  Built-in
schemas: ``weblog`` (Keyword/PageCount/AdCount/Time, Table I) and
``paper`` (the Section VI synthetic schema); ``append`` also accepts
``streaming`` (the weblog schema at minute resolution, paired with the
built-in S1-S4 maintainable query suite).  Invoke as
``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Optional, Sequence

from repro.cube.records import Schema
from repro.distribution.derive import candidate_keys, minimal_feasible_key
from repro.faults import FaultPlan, FaultPlanError, RetriesExhaustedError
from repro.io.serialize import write_result_csv
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.dfs import DataUnavailableError
from repro.mapreduce.timing import ClusterConfig
from repro.obs import (
    RunManifest,
    TelemetryRegistry,
    Span,
    Tracer,
    configure_logging,
    diff_manifests,
    explain_plan,
    progress_sink,
    render_dot,
    render_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.parallel.naive import NaiveEvaluator
from repro.query.parser import QueryParseError, parse_workflow
from repro.query.workflow import Workflow, connected_components


def _build_schema(name: str, days: int) -> Schema:
    if name == "weblog":
        from repro.workload.weblog import weblog_schema

        return weblog_schema(days=days)
    if name == "paper":
        from repro.workload.generator import paper_schema

        return paper_schema(days=days, temporal_base="minute")
    raise SystemExit(f"unknown schema {name!r}; choose 'weblog' or 'paper'")


def _generate_records(schema_name: str, schema: Schema, n: int, seed: int,
                      skew: bool):
    if schema_name == "weblog":
        from repro.workload.weblog import generate_sessions

        if skew:
            print(
                "note: --skew only applies to the 'paper' schema; "
                "generating regular weblog sessions",
                file=sys.stderr,
            )
        return generate_sessions(schema, n, seed=seed)
    from repro.workload.generator import generate_skewed, generate_uniform

    if skew:
        return generate_skewed(schema, n, seed=seed)
    return generate_uniform(schema, n, seed=seed)


def _load_workflow(path: str, schema: Schema) -> Workflow:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read query file: {exc}")
    try:
        return parse_workflow(text, schema)
    except QueryParseError as exc:
        raise SystemExit(f"{path}: {exc}")


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress (-v: info, -vv: debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors",
    )


def _configure_logging(args) -> None:
    """Apply the ``-v``/``-q`` flags to the ``repro`` logger tree."""
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    configure_logging(level)


def _add_common_arguments(
    parser: argparse.ArgumentParser,
    multi: bool = False,
    optional_query: bool = False,
) -> None:
    _add_logging_arguments(parser)
    if multi:
        parser.add_argument(
            "query", nargs="+", help="workflow script file(s) (.cq)"
        )
    elif optional_query:
        parser.add_argument(
            "query", nargs="?",
            help="workflow script file (.cq); omit with --spans",
        )
    else:
        parser.add_argument("query", help="workflow script file (.cq)")
    parser.add_argument(
        "--schema", default="weblog", choices=("weblog", "paper"),
        help="built-in schema to parse the query against",
    )
    parser.add_argument(
        "--days", type=int, default=2,
        help="temporal range of the schema, in days",
    )
    parser.add_argument(
        "--records", type=int, default=50_000,
        help="number of synthetic records to generate",
    )
    parser.add_argument(
        "--machines", type=int, default=20,
        help="machines in the simulated cluster",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--skew", action="store_true",
        help="use the skewed data distribution (paper schema only)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos", type=int, metavar="SEED",
        help=(
            "inject a seeded random fault plan (machine crashes, task "
            "failures, stragglers, lost partitions); same seed, same chaos"
        ),
    )
    parser.add_argument(
        "--fail-machines", metavar="LIST", default="",
        help="comma-separated machine ids to mark dead before the run",
    )


def _parse_fail_machines(spec: str) -> list[int]:
    if not spec.strip():
        return []
    try:
        return [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--fail-machines: expected comma-separated integers, got {spec!r}"
        )


def _build_cluster(args) -> SimulatedCluster:
    """Cluster for ``run``/``trace``, with static failures and chaos."""
    cluster = SimulatedCluster(ClusterConfig(machines=args.machines))
    for machine in _parse_fail_machines(args.fail_machines):
        try:
            cluster.fail_machine(machine)
        except (ValueError, RuntimeError) as exc:
            raise SystemExit(f"--fail-machines: {exc}")
    if args.chaos is not None:
        plan = FaultPlan.random(args.chaos, args.machines)
        try:
            cluster.install_faults(plan)
        except FaultPlanError as exc:
            raise SystemExit(f"--chaos: {exc}")
        print(f"chaos: {plan.describe()}")
    return cluster


def _check_early_aggregation(args, workflow) -> None:
    """Refuse ``--early-aggregation`` on a workflow that cannot take it."""
    if args.early_aggregation and not workflow.supports_early_aggregation():
        raise SystemExit(
            f"error: --early-aggregation: {args.query} does not support "
            "early aggregation (every basic measure must be distributive "
            "or algebraic, and every parent/child-only composite needs a "
            "finer basic measure in its component)"
        )


def _evaluate_or_die(evaluator, workflow, records, cluster):
    """Evaluate, turning unrecoverable failures into actionable errors."""
    try:
        return evaluator.evaluate(workflow, records)
    except DataUnavailableError as exc:
        down = sorted(cluster.failed_machines)
        raise SystemExit(
            f"error: data unavailable -- {exc} "
            f"(machines down: {down or 'none'}; replication factor is "
            f"{cluster.config.replication}: restore a machine with fewer "
            f"failures, or rebuild the DFS with higher replication)"
        )
    except RetriesExhaustedError as exc:
        raise SystemExit(
            f"error: fault injection exceeded the retry budget -- {exc} "
            f"(raise RetryPolicy.max_attempts, pick a tamer --chaos seed, "
            f"or use on_exhaustion='degrade')"
        )


def _print_fault_report(job) -> None:
    """One recovery line per phase when the run executed under chaos."""
    faults = getattr(job, "faults", None)
    if not faults:
        return
    for phase in ("map", "reduce"):
        stats = faults.get(phase)
        if not stats:
            continue
        print(
            f"recovery[{phase}]: {stats['attempts']} attempts for "
            f"{stats['tasks']} tasks, {stats['retries']} retries, "
            f"{stats['crash_kills']} crash kills, "
            f"{stats['speculative_launched']} speculative "
            f"({stats['speculative_wins']} won), "
            f"{stats['exhausted_tasks']} exhausted"
        )


def _add_telemetry_arguments(
    parser: argparse.ArgumentParser, profile: bool = True
) -> None:
    parser.add_argument(
        "--telemetry", metavar="FILE",
        help="stream live telemetry frames to this JSONL log "
             "(follow it with 'repro top --follow FILE')",
    )
    parser.add_argument(
        "--prom", metavar="FILE",
        help="write a Prometheus text-format snapshot of the final "
             "telemetry state (requires --telemetry)",
    )
    if profile:
        parser.add_argument(
            "--profile", metavar="FILE",
            help="sample driver wall-clock stacks during evaluation and "
                 "write collapsed stacks (flamegraph.pl/speedscope input)",
        )


def _make_telemetry(args, keep: bool = False):
    """``(registry, log_writer)`` for the run.

    Without ``--telemetry`` that is ``(None, None)`` -- or, with *keep*
    (commands whose manifest carries the registry), a registry with no
    writer.
    """
    if getattr(args, "prom", None) and not getattr(args, "telemetry", None):
        raise SystemExit("--prom requires --telemetry")
    if not getattr(args, "telemetry", None):
        return (TelemetryRegistry() if keep else None), None
    from repro.obs.exposition import TelemetryLogWriter

    registry = TelemetryRegistry()
    try:
        writer = TelemetryLogWriter(args.telemetry)
    except OSError as exc:
        raise SystemExit(f"cannot write telemetry log: {exc}")
    registry.attach(writer)
    return registry, writer


def _finish_telemetry(args, registry, writer) -> None:
    """Write the terminal frame and the optional Prometheus snapshot."""
    if writer is None:
        return
    writer.close(registry)
    print(f"wrote {writer.frames_written} telemetry frames to "
          f"{args.telemetry}")
    if getattr(args, "prom", None):
        from repro.obs.exposition import prometheus_text

        try:
            with open(args.prom, "w") as handle:
                handle.write(prometheus_text(registry))
        except OSError as exc:
            raise SystemExit(f"cannot write Prometheus snapshot: {exc}")
        print(f"wrote Prometheus snapshot to {args.prom}")


class _MaybeProfiler:
    """Context manager running the wall profiler when ``--profile`` asks."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self._profiler = None

    def __enter__(self):
        if self.path:
            from repro.obs.sampler import WallProfiler

            self._profiler = WallProfiler().__enter__()
        return self

    def __exit__(self, *exc):
        if self._profiler is None:
            return
        self._profiler.stop()
        try:
            self._profiler.write_collapsed(self.path)
        except OSError as error:
            raise SystemExit(f"cannot write profile: {error}")
        print(
            f"wrote {self._profiler.samples} profile samples "
            f"({len(self._profiler.collapsed())} stacks) to {self.path}"
        )


def _cmd_plan(args) -> int:
    schema = _build_schema(args.schema, args.days)
    workflow = _load_workflow(args.query, schema)
    print("Workflow:")
    print(workflow.describe())

    if args.tree:
        from repro.query.render import to_ascii

        print("\nDependency tree:")
        print(to_ascii(workflow))
    if args.dot:
        from repro.query.render import to_dot

        with open(args.dot, "w") as handle:
            handle.write(to_dot(workflow))
        print(f"\nwrote Graphviz source to {args.dot}")
    if args.explain:
        from repro.query.render import explain_derivation

        print()
        print(explain_derivation(workflow))

    components = connected_components(workflow)
    optimizer = Optimizer(OptimizerConfig())
    for index, component in enumerate(components):
        if len(components) > 1:
            print(f"\nComponent {index}: {list(component.names)}")
        minimal = minimal_feasible_key(component)
        print(f"\nminimal feasible key: {minimal!r}")
        print("candidates:")
        for key in candidate_keys(component):
            scheme, load = optimizer.cost_candidate(
                key, args.records, args.machines
            )
            factors = scheme.clustering_factors or "-"
            print(
                f"  {key!r}: cf={factors} blocks={scheme.num_blocks()} "
                f"predicted max load={load:.0f}"
            )
        plan = optimizer.plan(component, args.records, args.machines)
        print("chosen:", plan.describe())
    return 0


def _load_batch_queries(paths: Sequence[str], schema: Schema) -> dict:
    """Parse each file; query names are the file stems, which must be
    unique within one batch."""
    queries: dict[str, Workflow] = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in queries:
            raise SystemExit(
                f"duplicate query name {name!r}: batch query files need "
                "distinct base names"
            )
        queries[name] = _load_workflow(path, schema)
    return queries


def _explain_batch(args, schema: Schema) -> str:
    """The batch planner's decision trail for ``explain --batch``."""
    from repro.serving import BatchPlanner, MeasureCache

    queries = _load_batch_queries(args.query, schema)
    records = _generate_records(
        args.schema, schema, args.records, args.seed, args.skew
    )
    cluster = SimulatedCluster(ClusterConfig(machines=args.machines))
    cache = MeasureCache(args.cache_dir) if args.cache_dir else None
    planner = BatchPlanner(cache=cache)
    plan = planner.plan(queries, records, cluster.reduce_slots)
    if args.format == "json":
        return json.dumps(plan.to_dict(), indent=2, sort_keys=True)
    return plan.describe()


def _cmd_explain(args) -> int:
    if args.machines < 1:
        raise SystemExit("--machines must be at least 1")
    if args.records < 0:
        raise SystemExit("--records must be non-negative")
    schema = _build_schema(args.schema, args.days)
    if len(args.query) > 1 and not args.batch:
        raise SystemExit(
            "several query files given; use --batch to explain how they "
            "would share jobs"
        )
    if args.batch:
        if args.format == "dot":
            raise SystemExit("--format dot is not supported with --batch")
        payload = _explain_batch(args, schema)
    else:
        query_path = args.query[0]
        workflow = _load_workflow(query_path, schema)
        cluster = SimulatedCluster(ClusterConfig(machines=args.machines))
        config = OptimizerConfig(use_sampling=args.sampling)
        records = None
        if args.sampling:
            # Sampled dispatch judges candidates on real data; generate
            # the same dataset 'run' would use for these arguments.
            records = _generate_records(
                args.schema, schema, args.records, args.seed, args.skew
            )
        explanation = explain_plan(
            workflow,
            n_records=args.records,
            num_reducers=cluster.reduce_slots,
            config=config,
            records=records,
            query=query_path,
        )
        if args.format == "json":
            payload = json.dumps(
                explanation.to_dict(), indent=2, sort_keys=True
            )
        elif args.format == "dot":
            payload = render_dot(explanation)
        else:
            payload = render_text(explanation)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise SystemExit(f"cannot write {args.out}: {exc}")
        print(f"wrote {args.format} explanation to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_run(args) -> int:
    if args.machines < 1:
        raise SystemExit("--machines must be at least 1")
    if args.records < 0:
        raise SystemExit("--records must be non-negative")
    schema = _build_schema(args.schema, args.days)
    workflow = _load_workflow(args.query, schema)
    if not args.naive:
        _check_early_aggregation(args, workflow)
    records = _generate_records(
        args.schema, schema, args.records, args.seed, args.skew
    )
    cluster = _build_cluster(args)
    telemetry, telemetry_writer = _make_telemetry(args)

    if args.naive:
        if telemetry is not None or args.profile:
            raise SystemExit(
                "--telemetry/--profile are not supported with --naive"
            )
        outcome = _evaluate_or_die(
            NaiveEvaluator(cluster), workflow, records, cluster
        )
        print(outcome.describe())
        result = outcome.result
    else:
        config = ExecutionConfig(
            early_aggregation=args.early_aggregation,
            optimizer=OptimizerConfig(use_sampling=args.sampling),
        )
        with _MaybeProfiler(args.profile):
            outcome = _evaluate_or_die(
                ParallelEvaluator(cluster, config, telemetry=telemetry),
                workflow, records, cluster,
            )
        _finish_telemetry(args, telemetry, telemetry_writer)
        print(outcome.describe())
        _print_fault_report(outcome.job)
        bars = outcome.breakdown.cumulative()
        print(
            "breakdown:",
            "  ".join(f"{stage}={value:.4f}s" for stage, value in bars.items()),
        )
        if args.gantt:
            from repro.mapreduce.trace import render_gantt

            print()
            print(render_gantt(
                outcome.job.map_trace, cluster.map_slots,
                title="map phase:",
            ))
            print()
            print(render_gantt(
                outcome.job.reduce_trace, cluster.reduce_slots,
                title="reduce phase:",
            ))
        result = outcome.result

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            rows = write_result_csv(result, handle)
        print(f"wrote {rows} rows to {args.csv}")
    return 0


def _cmd_batch(args) -> int:
    if args.machines < 1:
        raise SystemExit("--machines must be at least 1")
    if args.records < 0:
        raise SystemExit("--records must be non-negative")
    if args.group_retries < 0:
        raise SystemExit("--group-retries must be non-negative")
    from repro.serving import (
        BatchEvaluator,
        BatchExecutionError,
        MeasureCache,
    )

    schema = _build_schema(args.schema, args.days)
    queries = _load_batch_queries(args.query, schema)
    records = _generate_records(
        args.schema, schema, args.records, args.seed, args.skew
    )
    cluster = _build_cluster(args)
    cache = MeasureCache(args.cache_dir) if args.cache_dir else None
    config = ExecutionConfig()
    telemetry, telemetry_writer = _make_telemetry(args, keep=True)
    evaluator = BatchEvaluator(
        cluster,
        config,
        cache=cache,
        group_retries=args.group_retries,
        telemetry=telemetry,
    )
    try:
        outcome = evaluator.evaluate(queries, records)
    except BatchExecutionError as exc:
        if exc.partial is not None:
            print(exc.partial.describe())
        raise SystemExit(f"error: {exc}")
    except DataUnavailableError as exc:
        down = sorted(cluster.failed_machines)
        raise SystemExit(
            f"error: data unavailable -- {exc} "
            f"(machines down: {down or 'none'})"
        )

    _finish_telemetry(args, telemetry, telemetry_writer)
    print(outcome.describe())
    for name in sorted(outcome.results):
        result = outcome.results[name]
        print(f"  {name}: {result.total_rows()} result rows")
    for job in outcome.jobs:
        _print_fault_report(job.job)

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for name in sorted(outcome.results):
            path = os.path.join(args.csv_dir, f"{name}.csv")
            with open(path, "w", newline="") as handle:
                rows = write_result_csv(outcome.results[name], handle)
            print(f"wrote {rows} rows to {path}")
    if args.manifest:
        manifest = RunManifest.from_batch(
            outcome,
            cluster_config=cluster.config,
            execution_config=config,
            telemetry=telemetry.snapshot(final=True),
        )
        try:
            manifest.write(args.manifest)
        except OSError as exc:
            raise SystemExit(f"cannot write manifest: {exc}")
        print(f"wrote run manifest to {args.manifest}")
    return 0


def _append_partitions(args, schema: Schema) -> list:
    """The append flow's data, as a list of record partitions.

    The ``streaming`` schema uses the watermarked session stream (each
    partition confined to its own time slice); the batch schemas
    generate one dataset and cut it into contiguous chunks, which still
    exercises every maintenance path -- just with unbounded dirty
    regions.
    """
    if args.schema == "streaming":
        from repro.workload.streaming import session_stream

        per_partition = max(1, args.records // args.partitions)
        return list(
            session_stream(
                schema, args.partitions, per_partition, seed=args.seed
            )
        )
    records = _generate_records(
        args.schema, schema, args.records, args.seed, args.skew
    )
    size = max(1, len(records) // args.partitions)
    chunks = [
        records[start:start + size]
        for start in range(0, len(records), size)
    ]
    # Fold a short tail chunk into the last full partition.
    if len(chunks) > args.partitions:
        chunks[args.partitions - 1].extend(
            record for chunk in chunks[args.partitions:] for record in chunk
        )
        del chunks[args.partitions:]
    return chunks


def _cmd_append(args) -> int:
    if args.machines < 1:
        raise SystemExit("--machines must be at least 1")
    if args.records < 1:
        raise SystemExit("--records must be positive")
    if args.partitions < 2:
        raise SystemExit(
            "--partitions must be at least 2 (one base + one append)"
        )
    from repro.local.sortscan import evaluate_centralized
    from repro.serving import (
        BatchEvaluator,
        BatchExecutionError,
        DatasetHasher,
        IncrementalMaintainer,
        MeasureCache,
        cache_key,
        partition_digest,
    )

    if args.schema == "streaming":
        from repro.workload.streaming import streaming_schema

        schema = streaming_schema(days=args.days)
    else:
        schema = _build_schema(args.schema, args.days)
    if args.query:
        queries = _load_batch_queries(args.query, schema)
    elif args.schema == "streaming":
        from repro.workload.streaming import streaming_query

        queries = {"stream": streaming_query(schema)}
    else:
        raise SystemExit(
            "a query file is required unless --schema streaming "
            "(which has a built-in maintainable query suite)"
        )

    partitions = _append_partitions(args, schema)
    base = partitions[0]
    cache = MeasureCache(args.cache_dir or None)
    config = ExecutionConfig()
    cluster_config = ClusterConfig(machines=args.machines)
    telemetry, telemetry_writer = _make_telemetry(args)

    if not args.no_warm:
        cluster = SimulatedCluster(cluster_config)
        evaluator = BatchEvaluator(
            cluster, config, cache=cache, telemetry=telemetry
        )
        try:
            evaluator.evaluate(queries, base)
        except BatchExecutionError as exc:
            raise SystemExit(f"error warming the cache: {exc}")
        print(
            f"warmed cache on partition 0 "
            f"({len(base)} records, {cache.stats.stores} stores)"
        )

    maintainer = IncrementalMaintainer(
        cache, schema, telemetry=telemetry,
        recompute_full=args.recompute_full,
    )
    workflows = list(queries.values())
    hasher = DatasetHasher(schema)
    hasher.update(base)
    fingerprint = hasher.fingerprint()
    history = [
        {"digest": partition_digest(base, schema), "n_records": len(base)}
    ]
    records = list(base)
    report = None
    for index, delta in enumerate(partitions[1:], start=1):
        old_fingerprint = fingerprint
        hasher.update(delta)
        fingerprint = hasher.fingerprint()
        report = maintainer.apply(
            workflows, records, delta,
            old_fingerprint, fingerprint, history=history,
        )
        print(f"partition {index}:")
        print(report.summary())
        history.append({
            "digest": report.partition, "n_records": len(delta),
        })
        records.extend(delta)
    _finish_telemetry(args, telemetry, telemetry_writer)

    verified = None
    if args.verify:
        verified = True
        compared = absent = 0
        for name, workflow in queries.items():
            cold = evaluate_centralized(workflow, records)
            for measure in workflow.measures:
                cached = cache.get(
                    cache_key(fingerprint, measure), measure.granularity
                )
                if cached is None:
                    absent += 1
                    continue
                compared += 1
                if cached.values != cold[measure.name].values:
                    verified = False
                    print(
                        f"VERIFY FAILED: {name}.{measure.name} diverges "
                        f"from the cold recompute"
                    )
        if verified:
            print(
                f"verify: {compared} maintained tables bit-identical to "
                f"a cold recompute over {len(records)} records"
                + (f" ({absent} not maintained)" if absent else "")
            )

    if args.manifest and report is not None:
        manifest = RunManifest.from_append(
            report,
            cluster_config=cluster_config,
            execution_config=config,
            partitions=len(history),
            verified=verified,
            telemetry=(
                telemetry.snapshot(final=True)
                if telemetry is not None
                else None
            ),
        )
        try:
            manifest.write(args.manifest)
        except OSError as exc:
            raise SystemExit(f"cannot write manifest: {exc}")
        print(f"wrote run manifest to {args.manifest}")
    return 1 if verified is False else 0


def _cmd_loadgen(args) -> int:
    if args.rate <= 0:
        raise SystemExit("--rate must be positive")
    if args.duration <= 0:
        raise SystemExit("--duration must be positive")
    from repro.serving import generate_arrivals, write_trace

    schema = _build_schema(args.schema, args.days)
    queries = _load_batch_queries(args.query, schema)
    arrivals = generate_arrivals(
        sorted(queries),
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        tenants=args.tenants,
        deadline_ms=args.deadline_ms,
        deadline_jitter=args.deadline_jitter,
    )
    try:
        write_trace(arrivals, args.out)
    except OSError as exc:
        raise SystemExit(f"cannot write trace: {exc}")
    tenants = sorted({arrival.tenant for arrival in arrivals})
    print(
        f"wrote {len(arrivals)} arrivals over {args.duration:g}s "
        f"({len(tenants)} tenants, rate {args.rate:g}/s, "
        f"seed {args.seed}) to {args.out}"
    )
    return 0


def _cmd_serve(args) -> int:
    if args.machines < 1:
        raise SystemExit("--machines must be at least 1")
    if args.records < 0:
        raise SystemExit("--records must be non-negative")
    if args.speed < 0:
        raise SystemExit("--speed must be non-negative (0 = no pacing)")
    from repro.serving import (
        MeasureCache,
        QueryService,
        ServiceLimits,
        TenantQuotas,
        generate_arrivals,
        read_trace,
        serve_arrivals,
    )

    schema = _build_schema(args.schema, args.days)
    catalog = _load_batch_queries(args.query, schema)
    records = _generate_records(
        args.schema, schema, args.records, args.seed, args.skew
    )

    if args.trace:
        try:
            arrivals = read_trace(args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot read trace: {exc}")
    else:
        arrivals = generate_arrivals(
            sorted(catalog),
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            tenants=args.tenants,
            deadline_ms=args.deadline_ms,
        )
    if args.arrival_chaos is not None:
        from repro.faults import ArrivalChaos, apply_arrival_chaos

        arrivals = apply_arrival_chaos(
            arrivals,
            ArrivalChaos.storm(
                args.arrival_chaos, intensity=args.storm_intensity
            ),
        )
    unknown = sorted(
        {arrival.query for arrival in arrivals} - set(catalog)
    )
    if unknown:
        raise SystemExit(
            f"trace references queries not in the catalog: "
            f"{', '.join(unknown)}"
        )

    cache = None
    if args.cache_dir or args.max_cache_bytes or args.cache_ttl:
        cache = MeasureCache(
            args.cache_dir or None,
            max_bytes=args.max_cache_bytes,
            ttl=args.cache_ttl,
        )
    limits = ServiceLimits(
        max_queue_depth=args.queue_depth,
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        admission_window_ms=args.window_ms,
        merge_patience=args.merge_patience,
        max_group_size=args.max_group_size,
    )
    quotas = TenantQuotas(
        capacity=args.quota_capacity, rate=args.quota_rate
    )
    config = ExecutionConfig()
    cluster_config = ClusterConfig(machines=args.machines)
    telemetry, telemetry_writer = _make_telemetry(args)

    # The trace plane: per-query span trees (JSONL sink), the flight
    # recorder, and per-tenant SLO burn tracking.
    tracer = None
    flight = None
    span_handle = None
    if args.span_file or args.flight_dir:
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(directory=args.flight_dir or None)
        on_span = None
        if args.span_file:
            try:
                span_handle = open(args.span_file, "w", encoding="utf-8")
            except OSError as exc:
                raise SystemExit(f"cannot write span file: {exc}")

            def on_span(span, _handle=span_handle) -> None:
                write_jsonl((span,), _handle)

        tracer = Tracer(on_span=on_span, flight=flight, process="daemon")
    slo = None
    if args.slo_ms is not None or args.slo:
        from repro.obs.slo import SloPolicy, SloTracker

        per_tenant = {}
        for spec in args.slo or []:
            tenant, _, objective = spec.partition("=")
            try:
                per_tenant[tenant] = SloPolicy(float(objective))
            except ValueError:
                raise SystemExit(
                    f"bad --slo spec {spec!r}; expected TENANT=MS"
                )
        default = None
        if args.slo_ms is not None:
            try:
                default = SloPolicy(args.slo_ms)
            except ValueError as exc:
                raise SystemExit(f"bad --slo-ms: {exc}")
        slo = SloTracker(default=default, per_tenant=per_tenant)

    service = QueryService(
        catalog,
        records,
        cluster_factory=lambda: SimulatedCluster(cluster_config),
        config=config,
        cache=cache,
        limits=limits,
        quotas=quotas,
        telemetry=telemetry,
        tracer=tracer,
        slo=slo,
        flight=flight,
    )
    try:
        responses, report = serve_arrivals(
            service,
            arrivals,
            speed=args.speed,
            install_signals=True,
        )
    finally:
        if span_handle is not None:
            span_handle.close()
    _finish_telemetry(args, telemetry, telemetry_writer)

    print(report.summary())
    by_status: dict[str, int] = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
    print(
        "statuses: "
        + ", ".join(
            f"{status}={count}"
            for status, count in sorted(by_status.items())
        )
    )
    latency = report.latency_ms
    if latency.get("count"):
        print(
            f"latency: p50 {latency['p50']:.1f}ms, "
            f"p95 {latency['p95']:.1f}ms, p99 {latency['p99']:.1f}ms, "
            f"max {latency['max']:.1f}ms"
        )
    ledgers = service.ledgers.to_dict()
    if ledgers.get("total"):
        print(
            f"ledger: {ledgers['total']} queries attributed, "
            f"{ledgers['complete']} within tolerance"
        )
    if slo is not None:
        for tenant, section in sorted(
            slo.snapshot()["tenants"].items()
        ):
            print(
                f"slo {tenant}: {section['good']} good / "
                f"{section['bad']} bad, "
                f"burn {section['burn_rate']:.2f}x"
            )
    if args.span_file:
        print(f"wrote per-query spans to {args.span_file}")
    if flight is not None and flight.dump_paths:
        print(
            f"flight recorder dumped {len(flight.dump_paths)} "
            f"bundle(s): {', '.join(flight.dump_paths)}"
        )
    if cache is not None and args.cache_spill and cache.directory is None:
        spilled = cache.spill_to(args.cache_spill)
        print(f"spilled {spilled} cache entries to {args.cache_spill}")
    if args.manifest:
        manifest = RunManifest.from_serve(
            report,
            cluster_config=cluster_config,
            execution_config=config,
            telemetry=(
                telemetry.snapshot(final=True)
                if telemetry is not None
                else None
            ),
            tracing=ledgers,
            slo=slo.snapshot() if slo is not None else None,
        )
        try:
            manifest.write(args.manifest)
        except OSError as exc:
            raise SystemExit(f"cannot write manifest: {exc}")
        print(f"wrote run manifest to {args.manifest}")
    return 0


def _default_manifest_path(out: str) -> str:
    """Derive the manifest path from the trace path.

    ``/tmp/trace.json`` becomes ``/tmp/trace.manifest.json``; paths
    without a ``.json`` suffix just get ``.manifest.json`` appended.
    """
    if out.endswith(".json"):
        return out[: -len(".json")] + ".manifest.json"
    return out + ".manifest.json"


def _cmd_trace_view(args) -> int:
    """View mode: read spans from disk instead of running a query."""
    from repro.obs.traceview import (
        collect_trace,
        find_orphans,
        iter_spans,
        list_traces,
        render_trace,
    )

    try:
        spans = list(iter_spans(args.spans, tail=args.tail))
    except OSError as exc:
        raise SystemExit(f"cannot read span file: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"{args.spans}: not a span file ({exc})")
    if not spans:
        print("(no spans)")
        return 0
    if args.query_id is None:
        traces = list_traces(spans)
        orphans = find_orphans(spans)
        line = f"{len(spans)} spans across {len(traces)} traces"
        if orphans:
            line += f", {len(orphans)} orphaned"
        print(line)
        for trace_id, entry in sorted(traces.items()):
            print(
                f"  {trace_id:<20} {entry['spans']:>4} spans"
                f"  root={entry['root'] or '?'}"
            )
        print(
            f"render one with: repro trace --spans {args.spans} "
            "--query <trace-id>"
        )
        return 0
    print(render_trace(spans, args.query_id))
    if args.chrome:
        tree = collect_trace(spans, args.query_id)
        if not tree:
            raise SystemExit(f"no spans for trace {args.query_id}")
        try:
            n_events = write_chrome_trace(
                [Span.from_dict(span) for span in tree], args.chrome
            )
        except OSError as exc:
            raise SystemExit(f"cannot write chrome trace: {exc}")
        print(
            f"wrote {n_events} trace events to {args.chrome} "
            "(open at https://ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def _cmd_trace(args) -> int:
    if args.spans:
        return _cmd_trace_view(args)
    if not args.query:
        raise SystemExit(
            "a query file is required unless --spans is given"
        )
    if args.machines < 1:
        raise SystemExit("--machines must be at least 1")
    if args.records < 0:
        raise SystemExit("--records must be non-negative")
    schema = _build_schema(args.schema, args.days)
    workflow = _load_workflow(args.query, schema)
    _check_early_aggregation(args, workflow)
    records = _generate_records(
        args.schema, schema, args.records, args.seed, args.skew
    )
    cluster = _build_cluster(args)

    tracer = Tracer(on_span=progress_sink() if args.verbose else None)
    config = ExecutionConfig(
        early_aggregation=args.early_aggregation,
        optimizer=OptimizerConfig(use_sampling=args.sampling),
    )
    telemetry, telemetry_writer = _make_telemetry(args, keep=True)
    evaluator = ParallelEvaluator(
        cluster, config, tracer=tracer, telemetry=telemetry,
    )
    with _MaybeProfiler(args.profile):
        outcome = _evaluate_or_die(evaluator, workflow, records, cluster)
    _finish_telemetry(args, telemetry, telemetry_writer)
    print(outcome.describe())
    _print_fault_report(outcome.job)

    try:
        with open(args.query) as handle:
            query_text = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read query file: {exc}")
    try:
        n_events = write_chrome_trace(tracer.spans, args.out)
    except OSError as exc:
        raise SystemExit(f"cannot write trace: {exc}")
    print(
        f"wrote {n_events} trace events to {args.out} "
        "(open at https://ui.perfetto.dev or chrome://tracing)"
    )
    manifest_path = args.manifest or _default_manifest_path(args.out)
    manifest = RunManifest.from_result(
        outcome,
        query=query_text,
        cluster_config=cluster.config,
        execution_config=config,
        telemetry=telemetry.snapshot(final=True),
    )
    try:
        manifest.write(manifest_path)
    except OSError as exc:
        raise SystemExit(f"cannot write manifest: {exc}")
    print(f"wrote run manifest to {manifest_path}")
    if args.events:
        try:
            n_spans = write_jsonl(tracer.spans, args.events)
        except OSError as exc:
            raise SystemExit(f"cannot write span file: {exc}")
        print(
            f"wrote {n_spans} spans to {args.events} (trace "
            f"{tracer.trace_id}; view with 'repro trace --spans "
            f"{args.events}')"
        )
    return 0


def _load_manifest_or_die(path: str) -> RunManifest:
    """Load a manifest, turning any bad input into a one-line error."""
    try:
        return RunManifest.load(path)
    except OSError as exc:
        raise SystemExit(f"cannot read manifest: {exc}")
    except (ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"{path}: not a run manifest ({exc})")


def _cmd_stats(args) -> int:
    if args.watch:
        return _follow_telemetry(
            args.manifest, interval=0.5, title="repro stats --watch"
        )
    manifest = _load_manifest_or_die(args.manifest)
    print(manifest.summary())
    return 0


def _follow_telemetry(
    path: str, interval: float = 0.5, title: str = "repro top"
) -> int:
    """Tail a telemetry JSONL log, re-rendering on every new frame.

    Stops when the writer emits its terminal ``final`` frame or on
    Ctrl-C.  A missing file is not an error: the run may not have
    started yet, so we keep polling.
    """
    from repro.obs.exposition import read_telemetry_frames
    from repro.obs.top import render_frame

    last_seq = None
    try:
        while True:
            newest = None
            try:
                for frame in read_telemetry_frames(path):
                    newest = frame
            except OSError:
                newest = None
            if newest is not None:
                key = (newest.get("seq"), bool(newest.get("final")))
                if key != last_seq:
                    last_seq = key
                    if sys.stdout.isatty():  # pragma: no cover - terminal
                        sys.stdout.write("\x1b[2J\x1b[H")
                    print(render_frame(newest, title=title))
                    sys.stdout.flush()
                if newest.get("final"):
                    return 0
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _cmd_top(args) -> int:
    if args.interval <= 0:
        raise SystemExit("--interval must be positive")
    if args.replay:
        from repro.obs.exposition import read_telemetry_frames
        from repro.obs.top import render_replay

        try:
            frames = list(read_telemetry_frames(args.replay))
        except OSError as exc:
            raise SystemExit(f"cannot read telemetry log: {exc}")
        print(render_replay(frames, last_only=args.last))
        return 0
    return _follow_telemetry(args.follow, interval=args.interval)


def _cmd_diff(args) -> int:
    if args.threshold < 0:
        raise SystemExit("--threshold must be non-negative")
    manifest_a = _load_manifest_or_die(args.run_a)
    manifest_b = _load_manifest_or_die(args.run_b)
    diff = diff_manifests(
        manifest_a,
        manifest_b,
        threshold=args.threshold,
        a_label=args.run_a,
        b_label=args.run_b,
    )
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.describe())
    return 1 if diff.has_regressions else 0


def _run_demo() -> int:
    """The quickstart weblog run, inline (no dependency on examples/)."""
    from repro.workload.weblog import (
        generate_sessions,
        weblog_query,
        weblog_schema,
    )

    schema = weblog_schema(days=1)
    workflow = weblog_query(schema)
    records = generate_sessions(schema, 50_000, seed=42)
    cluster = SimulatedCluster(ClusterConfig(machines=10))
    outcome = ParallelEvaluator(cluster).evaluate(workflow, records)
    print(workflow.describe())
    print()
    print(outcome.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel evaluation of composite aggregate queries "
            "(ICDE 2008 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="derive and cost distribution schemes")
    _add_common_arguments(plan)
    plan.add_argument(
        "--explain", action="store_true",
        help="show the per-measure key derivation steps",
    )
    plan.add_argument(
        "--tree", action="store_true",
        help="print the workflow as a dependency tree",
    )
    plan.add_argument(
        "--dot", metavar="FILE",
        help="write Graphviz source of the workflow to FILE",
    )
    plan.set_defaults(handler=_cmd_plan)

    explain = sub.add_parser(
        "explain", help="show the optimizer's full decision trail"
    )
    _add_common_arguments(explain, multi=True)
    explain.add_argument(
        "--batch", action="store_true",
        help="explain batch planning over several query files: share-"
             "group formation, merge verdicts, and cache pruning",
    )
    explain.add_argument(
        "--cache-dir", metavar="DIR",
        help="measure-cache directory to probe for --batch pruning",
    )
    explain.add_argument(
        "--sampling", action="store_true",
        help="include the skew handler's sampled-dispatch decision",
    )
    explain.add_argument(
        "--format", choices=("text", "json", "dot"), default="text",
        help="output rendering (default: text)",
    )
    explain.add_argument(
        "--out", metavar="FILE",
        help="write the explanation to FILE instead of stdout",
    )
    explain.set_defaults(handler=_cmd_explain)

    run = sub.add_parser("run", help="evaluate a query on the simulator")
    _add_common_arguments(run)
    _add_fault_arguments(run)
    run.add_argument(
        "--naive", action="store_true",
        help="use the Section I per-measure baseline",
    )
    run.add_argument(
        "--early-aggregation", action="store_true",
        help="pre-aggregate basic measures in the mappers",
    )
    run.add_argument(
        "--sampling", action="store_true",
        help="pick the plan by sampled simulated dispatch",
    )
    run.add_argument("--csv", help="export results to this CSV file")
    run.add_argument(
        "--gantt", action="store_true",
        help="draw slot-utilization charts of the map and reduce phases",
    )
    _add_telemetry_arguments(run)
    run.set_defaults(handler=_cmd_run)

    batch = sub.add_parser(
        "batch",
        help="co-evaluate several queries, sharing shuffles and a "
             "cross-run measure cache",
    )
    _add_common_arguments(batch, multi=True)
    _add_fault_arguments(batch)
    batch.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist materialized measures here; a second run against "
             "the same data reuses them and skips the computation",
    )
    batch.add_argument(
        "--group-retries", type=int, default=1, metavar="N",
        help="in-line retries per failing share group (default: 1)",
    )
    batch.add_argument(
        "--csv-dir", metavar="DIR",
        help="export each query's results as DIR/<query>.csv",
    )
    batch.add_argument(
        "--manifest", metavar="FILE",
        help="write a run manifest (share groups, cache stats)",
    )
    _add_telemetry_arguments(batch, profile=False)
    batch.set_defaults(handler=_cmd_batch)

    append = sub.add_parser(
        "append",
        help="incremental view maintenance: warm the cache on one "
             "partition, append the rest, patch cached answers forward",
    )
    _add_logging_arguments(append)
    append.add_argument(
        "query", nargs="*",
        help="workflow script file(s) (.cq); optional with "
             "--schema streaming (built-in S1-S4 suite)",
    )
    append.add_argument(
        "--schema", default="streaming",
        choices=("weblog", "paper", "streaming"),
        help="built-in schema; 'streaming' is the weblog schema at "
             "minute resolution with watermarked partitions "
             "(default: streaming)",
    )
    append.add_argument(
        "--days", type=int, default=1,
        help="temporal range of the schema, in days",
    )
    append.add_argument(
        "--records", type=int, default=20_000,
        help="total records across all partitions",
    )
    append.add_argument(
        "--partitions", type=int, default=4,
        help="data partitions: the first warms the cache, the rest "
             "arrive as appends (default: 4)",
    )
    append.add_argument(
        "--machines", type=int, default=20,
        help="machines in the simulated cluster (cache warm-up only)",
    )
    append.add_argument("--seed", type=int, default=42)
    append.add_argument(
        "--skew", action="store_true",
        help="use the skewed data distribution (paper schema only)",
    )
    append.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist the measure cache here (default: in-memory)",
    )
    append.add_argument(
        "--no-warm", action="store_true",
        help="skip the warm-up batch run; appends then only report "
             "classifications (nothing is cached to patch)",
    )
    append.add_argument(
        "--recompute-full", action="store_true",
        help="re-evaluate holistic (full-class) measures immediately "
             "instead of leaving their entries to age out",
    )
    append.add_argument(
        "--verify", action="store_true",
        help="after the last append, recompute every query cold and "
             "assert the maintained tables are bit-identical "
             "(exit status 1 on divergence)",
    )
    append.add_argument(
        "--manifest", metavar="FILE",
        help="write a run manifest with the last append's maintenance "
             "report (schema v8 'incremental' section)",
    )
    _add_telemetry_arguments(append, profile=False)
    append.set_defaults(handler=_cmd_append)

    loadgen = sub.add_parser(
        "loadgen",
        help="generate a seeded open-loop multi-tenant arrival trace "
             "for 'repro serve'",
    )
    _add_logging_arguments(loadgen)
    loadgen.add_argument(
        "query", nargs="+", help="workflow script file(s) (.cq)"
    )
    loadgen.add_argument(
        "--schema", default="weblog", choices=("weblog", "paper"),
        help="built-in schema to parse the queries against",
    )
    loadgen.add_argument(
        "--days", type=int, default=2,
        help="temporal range of the schema, in days",
    )
    loadgen.add_argument(
        "--rate", type=float, default=20.0,
        help="mean arrivals per second (Poisson)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=5.0,
        help="trace length in seconds",
    )
    loadgen.add_argument("--seed", type=int, default=42)
    loadgen.add_argument(
        "--tenants", type=int, default=4,
        help="number of simulated tenants (uniform weights)",
    )
    loadgen.add_argument(
        "--deadline-ms", type=float, default=None,
        help="attach this per-query deadline to every arrival",
    )
    loadgen.add_argument(
        "--deadline-jitter", type=float, default=0.0,
        help="fuzz deadlines by up to this fraction (+/-)",
    )
    loadgen.add_argument(
        "--out", metavar="FILE", required=True,
        help="write the JSONL arrival trace here",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    serve = sub.add_parser(
        "serve",
        help="run the always-on query daemon against an arrival trace: "
             "admission-windowed sharing, shedding, deadlines, drain",
    )
    _add_common_arguments(serve, multi=True)
    serve.add_argument(
        "--trace", metavar="FILE",
        help="replay this loadgen JSONL trace (default: generate one "
             "from --rate/--duration)",
    )
    serve.add_argument(
        "--rate", type=float, default=20.0,
        help="arrival rate when generating the trace inline",
    )
    serve.add_argument(
        "--duration", type=float, default=3.0,
        help="trace length when generating inline, seconds",
    )
    serve.add_argument(
        "--tenants", type=int, default=4,
        help="tenants when generating the trace inline",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline when generating the trace inline",
    )
    serve.add_argument(
        "--speed", type=float, default=1.0,
        help="replay speed multiplier (0 submits as fast as possible)",
    )
    serve.add_argument(
        "--window-ms", type=float, default=50.0,
        help="admission window: how long a query may wait for share "
             "partners (default: 50)",
    )
    serve.add_argument(
        "--merge-patience", type=int, default=4,
        help="dispatch a held group after this many consecutive "
             "arrivals declined to join it",
    )
    serve.add_argument(
        "--max-group-size", type=int, default=8,
        help="members that add measures per share group before "
        "immediate dispatch (duplicates join free)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="bounded ready-queue depth (past it: shed)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=2,
        help="groups taken off the queue at once (worker slots; "
        "they take turns executing)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="queries in the system before submits shed",
    )
    serve.add_argument(
        "--quota-capacity", type=float, default=None,
        help="per-tenant token-bucket burst capacity (default: "
             "quotas off)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=10.0,
        help="per-tenant token refill rate per second",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist materialized measures here across runs",
    )
    serve.add_argument(
        "--cache-spill", metavar="DIR",
        help="persist a memory-backed cache here on drain",
    )
    serve.add_argument(
        "--max-cache-bytes", type=int, default=None,
        help="evict least-recently-used cache entries past this size",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=None,
        help="expire cache entries older than this many seconds",
    )
    serve.add_argument(
        "--arrival-chaos", type=int, metavar="SEED", default=None,
        help="perturb the trace with a seeded arrival storm (bursts, "
             "tenant floods, duplicate submissions)",
    )
    serve.add_argument(
        "--storm-intensity", type=float, default=0.2,
        help="probability scale of the arrival storm (default: 0.2)",
    )
    serve.add_argument(
        "--manifest", metavar="FILE",
        help="write the drain manifest (serving + tracing + slo "
             "sections, schema v8)",
    )
    serve.add_argument(
        "--trace-spans", metavar="FILE", dest="span_file",
        help="write every query's trace spans as JSONL to FILE "
             "(view them with 'repro trace --spans FILE')",
    )
    serve.add_argument(
        "--flight-dir", metavar="DIR",
        help="enable the flight recorder: dump span bundles here on "
             "error, shed storm, deadline miss, or SIGUSR2",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=None, metavar="MS",
        help="default per-tenant latency objective (p99-style target "
             "0.99); enables SLO burn tracking",
    )
    serve.add_argument(
        "--slo", action="append", metavar="TENANT=MS",
        help="per-tenant latency objective override (repeatable)",
    )
    _add_telemetry_arguments(serve, profile=False)
    serve.set_defaults(handler=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="evaluate a query with tracing and export the trace; or, "
             "with --spans, view per-query span trees from a serve run",
    )
    _add_common_arguments(trace, optional_query=True)
    _add_fault_arguments(trace)
    trace.add_argument(
        "--spans", metavar="FILE",
        help="view mode: read spans (trace --events or serve "
             "--trace-spans JSONL, or a flight-recorder bundle) instead "
             "of running a query",
    )
    trace.add_argument(
        "--query", dest="query_id", metavar="TRACE_ID",
        help="with --spans: render this query's causal span tree",
    )
    trace.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="with --spans: only consider the last N spans "
             "(bounded memory on huge span files)",
    )
    trace.add_argument(
        "--chrome", metavar="FILE",
        help="with --spans --query: also export the collected tree "
             "as Chrome trace JSON",
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event output file (default: trace.json)",
    )
    trace.add_argument(
        "--manifest", metavar="FILE",
        help="run-manifest output file (default: <out>.manifest.json)",
    )
    trace.add_argument(
        "--events", metavar="FILE",
        help="also write the spans as JSONL to FILE (readable by "
             "'repro trace --spans FILE')",
    )
    trace.add_argument(
        "--early-aggregation", action="store_true",
        help="pre-aggregate basic measures in the mappers",
    )
    trace.add_argument(
        "--sampling", action="store_true",
        help="pick the plan by sampled simulated dispatch",
    )
    _add_telemetry_arguments(trace)
    trace.set_defaults(handler=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="summarize a run manifest written by 'trace'"
    )
    _add_logging_arguments(stats)
    stats.add_argument(
        "manifest",
        help="manifest JSON file to summarize (telemetry JSONL log "
             "with --watch)",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="treat the argument as a telemetry JSONL log and tail it, "
             "re-rendering the live dashboard until the final frame",
    )
    stats.set_defaults(handler=_cmd_stats)

    top = sub.add_parser(
        "top",
        help="live dashboard over a telemetry JSONL log "
             "(written by run/trace/batch --telemetry)",
    )
    _add_logging_arguments(top)
    top_source = top.add_mutually_exclusive_group(required=True)
    top_source.add_argument(
        "--follow", metavar="LOG",
        help="tail LOG while a run writes it, refreshing in place",
    )
    top_source.add_argument(
        "--replay", metavar="LOG",
        help="render a finished LOG frame by frame",
    )
    top.add_argument(
        "--last", action="store_true",
        help="with --replay, render only the final frame",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="with --follow, polling interval (default: 0.5)",
    )
    top.set_defaults(handler=_cmd_top)

    diff = sub.add_parser(
        "diff", help="compare two run manifests and flag regressions"
    )
    _add_logging_arguments(diff)
    diff.add_argument("run_a", help="baseline manifest JSON file")
    diff.add_argument("run_b", help="candidate manifest JSON file")
    diff.add_argument(
        "--threshold", type=float, default=0.05, metavar="FRACTION",
        help="relative slack on lower-is-better fields before a change "
             "counts as a regression (default: 0.05; 0 for exact)",
    )
    diff.add_argument(
        "--json", action="store_true",
        help="emit the full delta table as JSON instead of text",
    )
    diff.set_defaults(handler=_cmd_diff)

    demo = sub.add_parser("demo", help="run the paper's weblog example")
    _add_logging_arguments(demo)
    demo.set_defaults(handler=lambda _args: _run_demo())

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # A downstream pager/head closed our stdout; exit quietly like
        # standard Unix tools instead of dumping a traceback.  Point
        # stdout at devnull so interpreter shutdown does not re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
