"""Chaos smoke test: N seeded fault plans, one non-negotiable invariant.

Runs the weblog workload under a fresh random :class:`FaultPlan` per
seed on the simulated cluster (and optionally the real multiprocess
backend), asserting every run's result is bit-identical to
:func:`evaluate_centralized`.  Prints per-seed recovery accounting --
attempts, retries, crash kills, speculation -- so a glance shows the
chaos actually bit.  Run from the repo root::

    PYTHONPATH=src python tools/chaos_smoke.py [--seeds N] [--records N]
        [--machines N] [--multiprocess] [--intensity X] [--serve] [--shm]

With ``--serve`` each seed also drives the always-on daemon through an
arrival-layer storm (bursty arrivals, tenant floods, duplicate
submissions): every completed answer must still be bit-identical to the
oracle -- chaos may shed queries, never corrupt them.

With ``--multiprocess`` each seed also runs the process pool over
pickled record lists (the transport of a host without POSIX shared
memory).  With ``--shm`` it runs the pool over the shared-memory
shuffle (columnar buckets in ``/dev/shm`` segments) under the same
fault plan, asserting both bit-identity *and* that no segment survives
the run -- worker kills and pool rebuilds included, a leaked segment
is a failure.  A random plan seldom kills a worker, so both process
legs also pin one kill per seed (attempt 0 of task ``seed % 4``) and
require the pool to have been rebuilt at least once.  The shm leg runs
four buckets, then once more at the evaluator's default of one bucket
per worker, killing task ``seed % processes``.

Exit status is non-zero if any run's answer deviates from the oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time

from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.parallel.executor import ParallelEvaluator
from repro.workload import (
    all_queries,
    generate_sessions,
    generate_uniform,
    paper_schema,
    weblog_query,
    weblog_schema,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of random fault plans to try")
    parser.add_argument("--records", type=int, default=3000)
    parser.add_argument("--machines", type=int, default=12)
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="chaos intensity in (0, 1]")
    parser.add_argument("--multiprocess", action="store_true",
                        help="also run each plan on the real process pool, "
                             "shipping pickled record lists")
    parser.add_argument("--serve", action="store_true",
                        help="also storm the serving daemon with "
                             "arrival-layer chaos per seed")
    parser.add_argument("--serve-rate", type=float, default=120.0,
                        help="offered arrival rate for --serve storms")
    parser.add_argument("--shm", action="store_true",
                        help="also run each plan on the process pool over "
                             "the shared-memory shuffle, asserting no "
                             "/dev/shm segment outlives the run")
    return parser.parse_args(argv)


def serve_storm(seed: int, records, intensity: float, rate: float):
    """One daemon run under an arrival storm; returns (ok, line).

    Offered load is perturbed by a seeded :class:`ArrivalChaos` storm;
    every response that completes must match the centralized oracle
    bit-for-bit.  Shed and deadline responses are legitimate outcomes
    under chaos -- silent corruption is the only failure.
    """
    from repro.faults import ArrivalChaos, apply_arrival_chaos
    from repro.serving import (
        MeasureCache,
        QueryService,
        ServiceLimits,
        TenantQuotas,
        generate_arrivals,
        serve_arrivals,
    )

    schema = paper_schema(days=1)
    catalog = all_queries(schema)
    serve_records = generate_uniform(schema, len(records), seed=5)
    arrivals = generate_arrivals(
        sorted(catalog), rate=rate, duration=0.4, seed=seed,
        deadline_ms=10_000.0,
    )
    arrivals = apply_arrival_chaos(
        arrivals, ArrivalChaos.storm(seed, intensity=min(0.5, intensity))
    )
    service = QueryService(
        catalog,
        serve_records,
        limits=ServiceLimits(
            admission_window_ms=20.0, max_inflight=2,
            max_queue_depth=8, max_pending=48,
        ),
        quotas=TenantQuotas(capacity=40.0, rate=100.0),
        cache=MeasureCache(),
    )
    responses, report = serve_arrivals(service, arrivals, speed=1.0)
    oracles = {}
    mismatches = 0
    for response in responses:
        if not response.ok:
            continue
        if response.name not in oracles:
            oracles[response.name] = evaluate_centralized(
                catalog[response.name], serve_records
            )
        if list(response.result.as_rows()) != list(
            oracles[response.name].as_rows()
        ):
            mismatches += 1
    ok = mismatches == 0 and report.drained
    line = (
        f"{len(arrivals)} stormed arrivals: {report.completed} ok, "
        f"{report.total_shed} shed, {report.deadline_missed} deadline, "
        f"{report.groups_dispatched} groups, "
        f"drained={report.drained}"
        + (f", {mismatches} MISMATCHES" if mismatches else "")
    )
    return ok, line


@contextlib.contextmanager
def record_lists():
    """Make the process pool ship pickled record lists, as it does on a
    host without POSIX shared memory: the ``--multiprocess`` leg's
    transport, beside ``--shm``'s."""
    from repro.parallel import multiprocess

    available = multiprocess.shm_available
    multiprocess.shm_available = lambda: False
    try:
        yield
    finally:
        multiprocess.shm_available = available


def phase_line(stats: dict) -> str:
    return (
        f"{stats['attempts']} attempts/{stats['tasks']} tasks, "
        f"{stats['retries']} retries, {stats['crash_kills']} kills, "
        f"{stats['speculative_launched']} spec "
        f"({stats['speculative_wins']} won)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    schema = weblog_schema(days=1)
    workflow = weblog_query(schema)
    records = generate_sessions(schema, args.records, seed=5)
    oracle = evaluate_centralized(workflow, records)
    print(
        f"chaos smoke: {args.seeds} seeds x {args.records} records on "
        f"{args.machines} machines (oracle: centralized evaluation)"
    )

    # One process pool serves every seed: each plan's kills, timeouts
    # and degradations must leave it fit for the next plan.
    if args.multiprocess or args.shm:
        from repro.parallel.multiprocess import MultiprocessEvaluator

        pool = MultiprocessEvaluator(
            processes=2,
            retry_policy=RetryPolicy(
                backoff_base=0.05, backoff_max=0.2, straggler_timeout=30.0,
            ),
        )
    else:
        pool = contextlib.nullcontext()
    failures = 0
    with pool as evaluator:
        for seed in range(args.seeds):
            plan = FaultPlan.random(
                seed, args.machines, intensity=args.intensity
            )
            killing = dataclasses.replace(plan, kill_attempts=((seed % 4, 0),))
            cluster = SimulatedCluster(ClusterConfig(machines=args.machines))
            cluster.install_faults(plan)
            started = time.perf_counter()
            outcome = ParallelEvaluator(cluster).evaluate(workflow, records)
            elapsed = time.perf_counter() - started
            ok = outcome.result == oracle
            failures += not ok
            faults = outcome.job.faults
            print(f"seed {seed}: {'ok' if ok else 'MISMATCH'} "
                  f"({elapsed:.1f}s wall)  {plan.describe()}")
            print(f"  map:    {phase_line(faults['map'])}")
            print(f"  reduce: {phase_line(faults['reduce'])}")

            # The shm leg runs first: the pool it starts shares the
            # driver's resource tracker, which record lists never start.
            if args.shm:
                from repro.parallel.shm import leaked_segments, shm_available

                if not shm_available():
                    print("  shm:    skipped (POSIX shared memory "
                          "unavailable)")
                else:
                    # Four buckets, then the default of one per worker.
                    for label, partitions, victim in (
                        ("shm:  ", 4, seed % 4),
                        ("shm/1:", None, seed % evaluator.processes),
                    ):
                        evaluator.fault_plan = dataclasses.replace(
                            plan, kill_attempts=((victim, 0),)
                        )
                        result, report = evaluator.evaluate(
                            workflow, records, num_partitions=partitions
                        )
                        leaked = leaked_segments()
                        summary = report.fault_summary()
                        matched = (
                            result == oracle and report.transport == "shm"
                        )
                        killed = summary["pool_rebuilds"] >= 1
                        shm_ok = matched and killed and not leaked
                        failures += not shm_ok
                        verdict = (
                            "LEAKED " + ", ".join(leaked) if leaked
                            else "MISMATCH" if not matched
                            else "NO KILL" if not killed
                            else "ok"
                        )
                        print(
                            f"  {label} {verdict}  "
                            f"{summary['attempts']} attempts/"
                            f"{summary['tasks']} tasks, "
                            f"{summary['retries']} retries, "
                            f"{summary['pool_rebuilds']} rebuilds, "
                            f"{report.shm_bytes} shm bytes at "
                            f"{report.transport_bytes_per_second:.0f} B/s"
                        )

            if args.multiprocess:
                evaluator.fault_plan = killing
                with record_lists():
                    result, report = evaluator.evaluate(
                        workflow, records, num_partitions=4
                    )
                summary = report.fault_summary()
                matched = result == oracle and report.transport == "records"
                killed = summary["pool_rebuilds"] >= 1
                failures += not (matched and killed)
                verdict = (
                    "MISMATCH" if not matched
                    else "NO KILL" if not killed
                    else "ok"
                )
                print(
                    f"  mp:     {verdict}  "
                    f"{summary['attempts']} attempts/"
                    f"{summary['tasks']} tasks, "
                    f"{summary['retries']} retries, "
                    f"{summary['pool_rebuilds']} rebuilds, "
                    f"degraded={summary['degraded']}"
                )

            if args.serve:
                serve_ok, line = serve_storm(
                    seed, records, args.intensity, args.serve_rate
                )
                failures += not serve_ok
                print(f"  serve:  {'ok' if serve_ok else 'MISMATCH'}  {line}")

    if failures:
        print(f"FAILED: {failures} run(s) deviated from the oracle, "
              "leaked a segment or killed no worker")
        return 1
    print("all runs matched the centralized oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
