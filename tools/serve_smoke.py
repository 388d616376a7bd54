"""Serving smoke test: the daemon must bend under load, not break.

Two phases against one in-process :class:`~repro.serving.QueryService`
configuration, both driven by seeded loadgen traces (bit-reproducible):

1. **Low load.**  A gentle trace well inside capacity: every query must
   complete (zero shed, zero errors) and every answer must match the
   centralized oracle bit-for-bit.  The same trace is then replayed
   warm over phase 1's measure cache: no group may be dispatched,
   every component is served by ``cache``/``derive``, answers stay
   bit-identical, every warm answer's tables refuse writes (hits are
   the cache's shared rows), the cache counts one hit per measure
   served and no miss, no entry reads back corrupt, and ``repro
   batch``'s planner classifies every served query's components as
   ``cache``.
2. **Overload.**  An offered rate far past capacity with a tight queue:
   the daemon must shed explicitly (nonzero ``Overloaded`` responses),
   keep answering what it admits correctly, and drain cleanly -- all
   in-flight groups finished, a valid final report, no hangs.

3. **Duplicated burst.**  Several copies of every catalog query, each
   from its own tenant, arrive at once, as the same dashboards do from
   several tenants: share groups compute each distinct measure once,
   so the ``serve.shared_measures`` counter must be positive, every
   answer must match the oracle in type and bits, and each copy must
   own its tables (writing to one answer leaves the others as they
   were).

With ``--check-traces`` phases 1 and 2 also run the trace plane end to
end: every query gets a per-query tracer, a latency ledger, and a
flight recorder, and the smoke asserts the tracing invariants -- one
causally-connected tree per admitted query (zero orphans), and every
closed ledger's phases tiling its end-to-end latency within tolerance.
A ``TelemetryRegistry`` rides along, and its ``job.completed`` counter
must equal the number of groups run on the backend, whichever worker
task ran them.

With ``--append`` the smoke instead exercises **live appends**: the
daemon serves the streaming S1-S4 suite and the weblog M1-M4 medians
while delta partitions are installed mid-stream (racing in-flight
queries through the quiesce gate), and every patched S1-S4 answer and
every re-executed M1-M4 answer must stay bit-identical to a cold
recompute over the grown prefix with zero corrupt cache entries.

No mode injects a fault, so every mode also requires zero oracle
fallbacks: a backend error (say a ``DuplicateResultError`` from a group
run under an infeasible plan) fails the smoke instead of disappearing
behind the oracle's correct answer.

Run from the repo root (CI gives the job a hard timeout)::

    PYTHONPATH=src python tools/serve_smoke.py [--records N] [--seed N]
    PYTHONPATH=src python tools/serve_smoke.py --check-traces
    PYTHONPATH=src python tools/serve_smoke.py --append

Exit status is non-zero on any violated invariant.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.serving import (
    BatchEvaluator,
    MeasureCache,
    QueryService,
    ServiceLimits,
    generate_arrivals,
    serve_arrivals,
)
from repro.workload import all_queries, generate_uniform, paper_schema


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument(
        "--check-traces", action="store_true",
        help="also assert the tracing/ledger invariants on both phases",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="run the append smoke instead: patch the cache mid-stream "
             "and assert bit-identity against a cold rerun",
    )
    return parser.parse_args(argv)


def check(condition: bool, message: str, violations: list[str]) -> None:
    status = "ok" if condition else "VIOLATED"
    print(f"  [{status}] {message}")
    if not condition:
        violations.append(message)


def refuses_writes(table) -> bool:
    """Whether writes to *table*, through it or its rows, raise."""
    coords = next(iter(table.coords()), ())
    try:
        table[coords] = None
        return False
    except TypeError:
        pass
    try:
        table.values[coords] = None
        return False
    except TypeError:
        return True


def typed(result) -> dict:
    """(measure, region) -> (type, repr): equal only when every value's
    bits and Python type are."""
    return {
        (name, coords): (type(value), repr(value))
        for name, table in result.items()
        for coords, value in table.items()
    }


def build_service(catalog, records, cache, machines: int, tight: bool,
                  traced: bool = False, telemetry=None):
    limits = (
        ServiceLimits(
            admission_window_ms=15.0, max_inflight=1,
            max_queue_depth=2, max_pending=6,
        )
        if tight
        else ServiceLimits(admission_window_ms=25.0, max_inflight=2)
    )
    extras = {}
    if traced:
        from repro.obs import FlightRecorder, Tracer
        from repro.obs.telemetry import TelemetryRegistry

        extras = {
            "tracer": Tracer(),
            "flight": FlightRecorder(),
            "telemetry": TelemetryRegistry(),
        }
    if telemetry is not None:
        extras["telemetry"] = telemetry
    return QueryService(
        catalog,
        records,
        cluster_factory=lambda: SimulatedCluster(
            ClusterConfig(machines=machines)
        ),
        limits=limits,
        cache=cache,
        **extras,
    )


def check_traces(service, responses, report, phase: str,
                 violations: list[str]) -> None:
    """The CI tracing invariants, asserted against a finished phase."""
    from repro.obs import Span, chrome_trace_events, collect_trace, find_orphans

    # Every phase requires zero fallbacks, so every dispatched group
    # ran on the backend and finished one job.
    completed_jobs = service.telemetry.counters.get("job.completed", 0)
    check(
        report.fallbacks == 0
        and completed_jobs == report.groups_dispatched,
        f"{phase}: job.completed ({completed_jobs}) counts every group "
        f"run on the backend ({report.groups_dispatched})",
        violations,
    )

    spans = service.tracer.to_dicts()
    orphans = find_orphans(spans)
    check(
        not orphans,
        f"{phase}: zero orphaned spans ({len(spans)} spans)", violations,
    )
    missing_trees = [
        r.name for r in responses
        if not (r.trace_id and collect_trace(spans, r.trace_id))
    ]
    check(
        not missing_trees,
        f"{phase}: every response has a non-empty trace tree",
        violations,
    )
    # Cache- and derive-served queries never ran a job; only queries
    # that actually executed (in a group or via fallback) must reach
    # an execution span.
    executed = [
        r for r in responses
        if r.ok and any(d in ("group", "fallback") for d in r.served_by)
    ]
    no_exec_span = [
        r.name for r in executed
        if not any(
            s["name"] == "execute"
            for s in collect_trace(spans, r.trace_id)
        )
    ]
    check(
        not no_exec_span,
        f"{phase}: every executed query's tree reaches an execute span",
        violations,
    )
    if executed:
        # The Chrome view of one executed query: one trace-viewer
        # process per recorded process tag (daemon, execution slot).
        tree = collect_trace(spans, executed[0].trace_id)
        events = chrome_trace_events([Span.from_dict(s) for s in tree])
        processes = {s.get("process", "") for s in tree}
        named = {
            e["args"]["name"]: e["pid"]
            for e in events if e["name"] == "process_name"
        }
        drawn = {e["pid"] for e in events if e["ph"] == "X"}
        check(
            set(named) == processes
            and drawn == set(named.values())
            and len(drawn) == len(processes),
            f"{phase}: the Chrome export of {executed[0].trace_id} draws "
            f"one pid per process ({', '.join(sorted(processes))})",
            violations,
        )
    # Every admitted (ok) query has a closed ledger; shed-at-admission
    # queries never opened one.
    ok_ledgers = [
        service.ledgers.get(r.trace_id) for r in responses if r.ok
    ]
    check(
        all(lg is not None and lg.closed for lg in ok_ledgers),
        f"{phase}: every completed query has a closed ledger "
        f"({len(ok_ledgers)} queries)",
        violations,
    )
    incomplete = [
        ledger for ledger in service.ledgers.closed()
        if not ledger.complete(tolerance=0.05, floor_ms=2.0)
    ]
    for ledger in incomplete[:5]:
        print(
            f"    incomplete ledger {ledger.query}: residual "
            f"{ledger.residual_ms:+.2f}ms of {ledger.total_ms:.2f}ms"
        )
    check(
        not incomplete,
        f"{phase}: every ledger's phases tile its latency "
        f"(residual within 5% or 2ms)",
        violations,
    )


def append_smoke(args, violations: list[str]) -> None:
    """Appends mid-stream must patch the cache, never corrupt it.

    The daemon serves the streaming S1-S4 suite and the weblog M1-M4
    medians while delta partitions land between (and racing with) live
    queries.  Every answer after an append must be bit-identical to a
    cold recompute over the grown prefix -- S1-S4 patched, M1-M4's
    holistic measures re-executed -- queries admitted before an append
    must still answer over the old dataset (never a mixed view), and
    the measure cache must finish with zero corrupt entries.
    """
    import asyncio

    from repro.serving import QueryRequest
    from repro.workload import (
        session_stream,
        streaming_query,
        streaming_schema,
        weblog_query,
    )

    schema = streaming_schema(days=1)
    query = streaming_query(schema)
    weblog = weblog_query(schema)
    per_partition = max(200, args.records // 4)
    partitions = list(
        session_stream(schema, 4, per_partition, seed=args.seed)
    )
    cache = MeasureCache()
    service = QueryService(
        {"stream": query, "weblog": weblog},
        partitions[0],
        cluster_factory=lambda: SimulatedCluster(
            ClusterConfig(machines=args.machines)
        ),
        cache=cache,
        limits=ServiceLimits(admission_window_ms=10.0),
    )
    print(
        f"append smoke: 1 warmed + {len(partitions) - 1} appended "
        f"partitions x {per_partition} sessions"
    )

    async def body():
        await service.start()
        baseline = await service.submit(QueryRequest("stream", query))
        weblog_baseline = await service.submit(
            QueryRequest("weblog", weblog)
        )
        answers = []
        weblog_answers = []
        reports = []
        racers = []
        for delta in partitions[1:]:
            racing = [
                asyncio.create_task(
                    service.submit(QueryRequest("stream", query))
                )
                for _ in range(2)
            ]
            # Let the racers pass admission, then append while they
            # are in flight -- the quiesce path under test.
            await asyncio.sleep(0)
            reports.append(await service.append(delta))
            racers.append(await asyncio.gather(*racing))
            answers.append(
                await service.submit(QueryRequest("stream", query))
            )
            weblog_answers.append(
                await service.submit(QueryRequest("weblog", weblog))
            )
        report = await service.drain()
        return (
            baseline, weblog_baseline, answers, weblog_answers, reports,
            racers, report,
        )

    (
        baseline, weblog_baseline, answers, weblog_answers, reports,
        racers, report,
    ) = asyncio.run(body())

    prefixes = [partitions[0]]
    for delta in partitions[1:]:
        prefixes.append(prefixes[-1] + delta)
    colds = [evaluate_centralized(query, prefix) for prefix in prefixes]
    weblog_colds = [
        evaluate_centralized(weblog, prefix) for prefix in prefixes
    ]

    check(
        baseline.ok and baseline.result == colds[0],
        "pre-append answer matches the cold base", violations,
    )
    check(
        weblog_baseline.ok and weblog_baseline.result == weblog_colds[0],
        "pre-append weblog answer matches the cold base", violations,
    )
    for index, answer in enumerate(answers, start=1):
        check(
            answer.ok and answer.result == colds[index],
            f"answer after append {index} bit-identical to a cold "
            f"rerun over {len(prefixes[index])} records",
            violations,
        )
    for index, answer in enumerate(weblog_answers, start=1):
        check(
            answer.ok and typed(answer.result) == typed(weblog_colds[index]),
            f"weblog answer after append {index} bit- and type-identical "
            f"to a cold rerun over {len(prefixes[index])} records",
            violations,
        )
    check(
        all(
            r is not None and r.patched == len(query.measures)
            for r in reports
        ),
        "every append patched every cached measure", violations,
    )
    # A query admitted before an append answers over the dataset it was
    # admitted against -- one of the prefixes, never a mix of two.
    tables = [cold for cold in colds]
    check(
        all(
            response.ok and response.result in tables
            for generation in racers
            for response in generation
        ),
        "queries racing an append answered over a whole prefix",
        violations,
    )
    check(
        report.appends == len(partitions) - 1
        and report.appended_records == sum(
            len(delta) for delta in partitions[1:]
        ),
        "the serve report counted every append", violations,
    )
    check(
        cache.stats.corrupt == 0 and cache.stats.store_errors == 0,
        "zero corrupt cache entries, zero store errors", violations,
    )
    check(
        report.fallbacks == 0, "zero oracle fallbacks across appends",
        violations,
    )
    check(report.drained, "clean drain after appends", violations)


def duplicated_burst(args, catalog, records, oracles,
                     violations: list[str], copies: int = 4) -> None:
    """Phase 3: *copies* tenants send every catalog query at once."""
    from repro.obs.telemetry import TelemetryRegistry
    from repro.serving import Arrival

    print(
        f"phase 3: duplicated burst ({copies} tenants x "
        f"{len(catalog)} queries at once)"
    )
    burst = [
        Arrival(at=0.0, tenant=f"tenant{copy}", query=name)
        for name in sorted(catalog)
        for copy in range(copies)
    ]
    telemetry = TelemetryRegistry()
    service = build_service(
        catalog, records, None, args.machines, tight=False,
        telemetry=telemetry,
    )
    responses, report = serve_arrivals(service, burst, speed=0)
    shared = telemetry.counters.get("serve.shared_measures", 0)
    print(
        f"  {len(burst)} arrivals: {report.completed} completed, "
        f"{report.groups_dispatched} groups, {shared} measures answered "
        "from another member's computation"
    )
    check(
        report.completed == len(burst) and report.fallbacks == 0,
        "every copy answered on the backend", violations,
    )
    check(shared > 0, "serve.shared_measures is positive", violations)
    expected = {name: typed(oracle) for name, oracle in oracles.items()}
    check(
        all(
            r.ok and typed(r.result) == expected[r.name] for r in responses
        ),
        f"all {len(responses)} answers type- and bit-identical to the "
        "oracle",
        violations,
    )
    if responses[0].ok:
        for table in responses[0].result.tables.values():
            for coords in list(table.coords())[:1]:
                table[coords] = "overwritten"
    check(
        all(
            typed(r.result) == expected[r.name]
            for r in responses[1:]
            if r.ok
        ),
        "writing to one answer leaves every other answer unchanged",
        violations,
    )
    check(report.drained, "clean drain after the burst", violations)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.append:
        violations: list[str] = []
        append_smoke(args, violations)
        if violations:
            print(f"FAILED: {len(violations)} invariant(s) violated")
            return 1
        print("append smoke passed")
        return 0
    schema = paper_schema(days=1)
    catalog = all_queries(schema)
    records = generate_uniform(schema, args.records, seed=7)
    oracles = {
        name: evaluate_centralized(workflow, records)
        for name, workflow in catalog.items()
    }
    violations: list[str] = []

    print(
        f"serve smoke: {len(catalog)} catalog queries x {args.records} "
        f"records, seed {args.seed}"
    )

    # -- phase 1: low load --------------------------------------------------
    print("phase 1: low offered load (must not shed)")
    gentle = generate_arrivals(
        sorted(catalog), rate=10.0, duration=1.0, seed=args.seed,
    )
    cache = MeasureCache()
    service = build_service(
        catalog, records, cache, args.machines, tight=False,
        traced=args.check_traces,
    )
    started = time.perf_counter()
    responses, report = serve_arrivals(service, gentle, speed=1.0)
    elapsed = time.perf_counter() - started
    completed = [r for r in responses if r.ok]
    identical = sum(
        1
        for r in completed
        if list(r.result.as_rows()) == list(oracles[r.name].as_rows())
    )
    print(
        f"  {len(gentle)} arrivals in {elapsed:.1f}s wall: "
        f"{report.completed} completed, {report.total_shed} shed, "
        f"{report.groups_dispatched} groups"
    )
    check(report.total_shed == 0, "zero shed at low load", violations)
    check(report.errors == 0, "zero errors at low load", violations)
    check(
        report.fallbacks == 0,
        "zero oracle fallbacks at low load (the backend never failed)",
        violations,
    )
    check(
        len(completed) == len(gentle),
        "every low-load arrival completed", violations,
    )
    check(
        identical == len(completed),
        f"all {len(completed)} answers bit-identical to the oracle",
        violations,
    )
    check(report.drained, "clean drain after low load", violations)
    if args.check_traces:
        check_traces(
            service, responses, report, "low-load traces", violations
        )

    # -- phase 1, warm: the same trace over phase 1's cache -----------------
    print("phase 1 warm: replay over phase 1's cache (must run no job)")
    served = {
        name: catalog[name] for name in sorted({r.name for r in completed})
    }
    service = build_service(
        catalog, records, cache, args.machines, tight=False,
        traced=args.check_traces,
    )
    before = cache.stats.snapshot()
    responses, report = serve_arrivals(service, gentle, speed=0)
    print(
        f"  {len(gentle)} arrivals: {report.completed} completed, "
        f"{report.groups_dispatched} groups, cache over both replays "
        f"{report.cache}"
    )
    check(
        report.groups_dispatched == 0,
        "warm replay dispatches no group", violations,
    )
    check(
        all(
            r.ok and set(r.served_by) <= {"cache", "derive"}
            for r in responses
        ),
        "every warm component served by cache or derive", violations,
    )
    check(
        all(
            list(r.result.as_rows()) == list(oracles[r.name].as_rows())
            for r in responses
            if r.ok
        ),
        "warm answers bit-identical to the oracle", violations,
    )
    check(
        all(
            refuses_writes(table)
            for r in responses
            if r.ok
            for table in r.result.tables.values()
        ),
        "every warm answer's tables refuse writes", violations,
    )
    served_measures = sum(len(r.result.tables) for r in responses if r.ok)
    warm_hits = report.cache["hits"] - before.hits
    warm_misses = report.cache["misses"] - before.misses
    check(
        warm_hits == served_measures and warm_misses == 0,
        f"warm cache counts one hit per measure served "
        f"({warm_hits} hits for {served_measures} measures) and "
        f"no miss ({warm_misses})",
        violations,
    )
    check(cache.stats.corrupt == 0, "zero corrupt cache entries", violations)
    check(report.fallbacks == 0, "zero oracle fallbacks warm", violations)
    plan = BatchEvaluator(
        SimulatedCluster(ClusterConfig(machines=args.machines)),
        cache=cache,
    ).plan(served, records)
    check(
        all(c.disposition == "cache" for c in plan.components()),
        f"batch planner classifies all {len(plan.components())} "
        f"components of {len(served)} served queries as cache",
        violations,
    )
    if args.check_traces:
        check_traces(
            service, responses, report, "warm traces", violations
        )

    # -- phase 2: overload --------------------------------------------------
    print("phase 2: overload (must shed explicitly and drain cleanly)")
    flood = generate_arrivals(
        sorted(catalog), rate=400.0, duration=0.5, seed=args.seed + 1,
    )
    service = build_service(
        catalog, records, MeasureCache(), args.machines, tight=True,
        traced=args.check_traces,
    )
    started = time.perf_counter()
    responses, report = serve_arrivals(service, flood, speed=1.0)
    elapsed = time.perf_counter() - started
    completed = [r for r in responses if r.ok]
    shed = [r for r in responses if r.status == "overloaded"]
    identical = sum(
        1
        for r in completed
        if list(r.result.as_rows()) == list(oracles[r.name].as_rows())
    )
    print(
        f"  {len(flood)} arrivals in {elapsed:.1f}s wall: "
        f"{report.completed} completed, {report.total_shed} shed "
        f"({dict(sorted(report.shed.items()))}), "
        f"queue peak {report.queue.get('peak_depth')}"
    )
    check(report.total_shed > 0, "overload sheds explicitly", violations)
    check(
        all(r.overload is not None and r.overload.reason for r in shed),
        "every shed response carries a structured reason", violations,
    )
    check(
        len(completed) + len(shed)
        + sum(1 for r in responses if r.status in ("deadline", "error"))
        == len(flood),
        "every arrival got a terminal response", violations,
    )
    check(
        identical == len(completed),
        f"all {len(completed)} admitted answers bit-identical under "
        "overload",
        violations,
    )
    check(
        report.fallbacks == 0, "zero oracle fallbacks under overload",
        violations,
    )
    check(report.drained, "clean drain after overload", violations)
    if args.check_traces:
        check_traces(
            service, responses, report, "overload traces", violations
        )

    duplicated_burst(args, catalog, records, oracles, violations)

    if violations:
        print(f"FAILED: {len(violations)} invariant(s) violated")
        return 1
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
