"""The benchmark's workloads: seeded inputs, set-up, load loops, oracle.

Every workload drives the program only through its public API
(``QueryService.submit/append/drain``, ``ParallelEvaluator.evaluate``,
``MultiprocessEvaluator.evaluate``, ``evaluate_centralized`` and the
``repro.workload`` / ``repro.serving`` generators) and checks every
answer against ``evaluate_centralized``.  The program is imported
inside :func:`import_program`, so the import is part of the measured
set-up and a checkout without ``src/`` fails before anything is timed.

One *operation* is one call a client awaits: a query submission, an
append, or an ``evaluate`` call.  The end-to-end metrics are defined on
operations, so every workload reports every one of them.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from layers import MACHINES, Missing, resolve

ROOT = Path(__file__).resolve().parent.parent

#: Nominal and ``--smoke`` sizes.  Nominal is the issue's sizing scaled
#: to what one run of ``run_seconds`` holds on two cores (README.md,
#: "Sizes").
SIZES = {
    "serve_cold": {
        "nominal": {"records": 2_000, "rate": 4.0, "open_share": 0.8},
        "smoke": {"records": 300, "rate": 12.0, "open_share": 0.6},
    },
    "serve_hot": {
        "nominal": {"records": 2_000, "clients": 2, "rss_after": 40_000},
        "smoke": {"records": 300, "clients": 2, "rss_after": 1_000},
    },
    "serve_append": {
        "nominal": {"base_partitions": 4, "appends": 30,
                    "partition_records": 400, "think_ms": 20.0,
                    "maintainable_share": 0.7},
        "smoke": {"base_partitions": 2, "appends": 5,
                  "partition_records": 60, "think_ms": 20.0,
                  "maintainable_share": 0.7},
    },
    "oneshot_scan": {
        "nominal": {"records": 6_000, "days": 20},
        "smoke": {"records": 200, "days": 2},
    },
    "oneshot_process": {
        "nominal": {"records": 4_000, "days": 20},
        "smoke": {"records": 100, "days": 2},
    },
}

#: An operation answered correctly within this many milliseconds meets
#: the workload's service-level objective.
SLO_MS = {
    "serve_cold": 500.0,
    "serve_hot": 5.0,
    "serve_append": 1_000.0,
    "oneshot_scan": 5_000.0,
    "oneshot_process": 10_000.0,
}

TENANTS = 4
SKEW_FRACTION = 0.25


def import_program() -> float:
    """Import the program under test; returns the seconds it took."""
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    started = time.perf_counter()
    import repro
    import repro.parallel.multiprocess  # noqa: F401
    import repro.serving  # noqa: F401
    seconds = time.perf_counter() - started
    if not Path(repro.__file__).resolve().is_relative_to(source):
        # An installed copy would make every comparison of two
        # checkouts compare that copy with itself.
        raise ImportError(
            f"repro was imported from {repro.__file__}, not from {source}"
        )
    return seconds


def result_digest(result) -> tuple:
    """Order-free digest of a ``ResultSet``, valid within one process.

    Sums of item hashes run at C speed, which keeps checking hundreds
    of answers of tens of thousands of rows cheap; the type sum keeps
    ``1`` and ``1.0`` apart.
    """
    mask = 2**64 - 1
    return tuple(
        sorted(
            (
                name,
                len(table),
                sum(map(hash, table.values.items())) & mask,
                sum(map(hash, map(type, table.values.values()))) & mask,
            )
            for name, table in result.items()
        )
    )


def percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def host_jiffies() -> tuple:
    """``(busy, stolen)`` jiffies of all CPUs since boot.

    *stolen* is what ``/proc/stat`` calls steal: time a virtual CPU of
    this machine wanted to run while the host ran another guest.  On
    the two shared cores this benchmark is sized for it comes in spells
    of minutes and reaches 40 %, which doubles every wall time taken
    in them.  ``(0, 0)`` where the kernel does not tell.
    """
    try:
        with open("/proc/stat") as stream:
            fields = stream.readline().split()
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(
            int, fields[1:9]
        )
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


def net_seconds(begun: float, before: tuple, done: float) -> float:
    """Seconds from *begun* to *done* net of what the host stole.

    *before* is :func:`host_jiffies` at *begun*.  Idle virtual CPUs
    lose nothing, so the stolen jiffies were taken from the ``parallel``
    CPUs that wanted to run, and each of them -- the one on the
    critical path too -- lost its share of them.
    """
    wall = done - begun
    busy, stolen = (
        now - then for now, then in zip(host_jiffies(), before)
    )
    if stolen <= 0 or wall <= 0:
        return wall
    parallel = min(
        max(1.0, (busy + stolen) / _TICKS_PER_S / wall), os.cpu_count() or 1
    )
    return max(wall - stolen / _TICKS_PER_S / parallel, wall / 10)


def steal_share(before: tuple) -> float:
    """Of the CPU time this machine wanted since *before*, the share
    the host took."""
    busy, stolen = (
        now - then for now, then in zip(host_jiffies(), before)
    )
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest child, in MB."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


@dataclass
class Drive:
    """What one pass of a workload's load loop observed."""

    #: Construction + ``start()`` + cache pre-warm, up to the first
    #: timed operation (the import is timed separately).
    setup_s: float = 0.0
    #: One latency per correctly answered operation, for the SLO share
    #: and the ungated tail percentiles.
    latencies_ms: list = field(default_factory=list)
    #: Operations attempted; those shed, failed, or answered wrongly.
    attempted: int = 0
    failed: int = 0
    #: Why the first few failed, for whoever reads stderr.
    failures: list = field(default_factory=list)
    #: The two timing metrics, by the workload's own estimator (see
    #: README.md, "Estimators").
    latency_p50_ms: float = 0.0
    throughput_qps: float = 0.0
    #: Read when the load loop ends, or earlier at a fixed operation
    #: count where memory grows with every answer.
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    #: Share of the machine's wanted CPU time the host took during the
    #: load loop; the timings above are net of it (``net_seconds``).
    steal_share: float = 0.0
    #: How late the generator sent each scheduled operation (ms).
    lateness_ms: list = field(default_factory=list)
    append_ms: list = field(default_factory=list)
    #: What the program's public reports say about its layers.
    observed: dict = field(default_factory=dict)
    #: Bench-side spans ``(name, start, end, query id)``, one per
    #: operation; kept only in the traced run.
    traced: bool = False
    op_spans: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def span(self, start: float, end: float, query: str) -> None:
        if self.traced:
            self.op_spans.append(("loadgen.op", start, end, query))

    def slo_ok_share(self, slo_ms: float) -> float:
        """Operations answered correctly within the limit; a failed
        operation has no latency here, so it misses."""
        within = sum(1 for value in self.latencies_ms if value <= slo_ms)
        return within / (len(self.latencies_ms) + self.failed)


def best_slices(done_s: list, latencies_ms: list, width: float) -> tuple:
    """``(highest throughput, lowest median latency)`` over the whole
    *width*-second slices of a closed loop.

    A shared machine's speed flickers within a second and drifts over
    minutes; the best of many short slices is what the code costs when
    the machine is undisturbed, and repeats about twice as well as the
    whole-loop figures (README.md, "Estimators").
    """
    first = min(done_s)
    slices: dict = {}
    for done, latency in zip(done_s, latencies_ms):
        slices.setdefault(int((done - first) / width), []).append(latency)
    whole = [slices[index] for index in sorted(slices)[:-1]] or [
        latencies_ms
    ]
    return (
        max(len(values) for values in whole) / width,
        min(percentile(sorted(values), 0.5) for values in whole),
    )


def why_failed(query: str, response) -> str:
    """One line on a served answer that was refused or wrong."""
    if not response.ok:
        return f"{query}: {response.status} {response.error}"
    return (
        f"{query}: wrong answer, served by {response.served_by} "
        f"with {response.group_queries}"
    )


class Workload:
    """Seeded inputs, a timed set-up, a load loop."""

    name = ""
    #: Dotted name of the program's tracer that this workload's entry
    #: point accepts.
    tracer = ""

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.sizes = dict(SIZES[self.name]["smoke" if smoke else "nominal"])
        self.slo_ms = SLO_MS[self.name]
        #: Why the program's own tracing could not be switched on.
        self.tracing_missing = ""
        #: Attributes every workload sets: the schema, the query
        #: catalog, and the dataset the layer replay runs on.
        self.schema = self.catalog = self.records = None
        self.make_inputs()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def input_parts(self) -> list:
        """Everything generated from the seed besides the catalog."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Identity of the generated inputs: same seed, same digest."""
        from repro.io import workflow_to_script

        digest = hashlib.sha256()
        for name in sorted(self.catalog):
            digest.update(workflow_to_script(self.catalog[name]).encode())
        digest.update(repr(self.input_parts()).encode())
        return digest.hexdigest()

    def replay_inputs(self) -> tuple:
        """``(base records, delta records)`` for the per-layer replay."""
        cut = len(self.records) - max(1, len(self.records) // 10)
        return self.records[:cut], self.records[cut:]

    def tracing(self, traced: bool) -> dict:
        """Constructor arguments that switch the program's own tracing
        on; none, and the reason kept, when the tracer is gone."""
        if not traced:
            return {}
        try:
            return {
                "tracer": resolve(self.tracer)(),
                "telemetry": resolve(
                    "repro.obs.telemetry.TelemetryRegistry"
                )(),
            }
        except Missing as exc:
            self.tracing_missing = str(exc)
            return {}

    def drive(self, seconds: float, traced: bool = False) -> Drive:
        raise NotImplementedError

    def setup_only(self) -> float:
        """Set up, tear down, and return the set-up seconds."""
        raise NotImplementedError


# -- serving ------------------------------------------------------------------


class ServeWorkload(Workload):
    """Shared by the ``serve_*`` workloads: one ``QueryService``."""

    tracer = "repro.obs.QueryTracer"
    cached = False

    def make_paper_day(self) -> None:
        """One day of the paper's schema, uniform records, Q1-Q6."""
        from repro.workload import all_queries, generate_uniform, paper_schema

        self.schema = paper_schema(days=1, temporal_base="minute")
        self.catalog = all_queries(self.schema)
        self.records = generate_uniform(
            self.schema, self.sizes["records"], seed=self.seed
        )

    def oracle(self) -> dict:
        """Query name -> digest of the centralized answer."""
        from repro.local import evaluate_centralized

        return {
            name: result_digest(evaluate_centralized(workflow, self.records))
            for name, workflow in self.catalog.items()
        }

    def request(self, query: str, tenant: str = "default"):
        from repro.serving import QueryRequest

        return QueryRequest(
            name=query, workflow=self.catalog[query], tenant=tenant
        )

    async def setup(self, traced: bool) -> tuple:
        """Returns ``(service, set-up seconds)``."""
        from repro.mapreduce import ClusterConfig, SimulatedCluster
        from repro.serving import MeasureCache, QueryService, ServiceLimits

        started = time.perf_counter()
        service = QueryService(
            self.catalog,
            self.records,
            cluster_factory=lambda: SimulatedCluster(
                ClusterConfig(machines=MACHINES)
            ),
            cache=MeasureCache() if self.cached else None,
            # Queue and pending limits wide: nothing is shed, so every
            # arrival is answered and latency carries the whole load.
            limits=ServiceLimits(
                admission_window_ms=20.0,
                max_inflight=2,
                max_queue_depth=100_000,
                max_pending=1_000_000,
            ),
            **self.tracing(traced),
        )
        await service.start()
        if self.cached:
            for name in self.catalog:
                response = await service.submit(self.request(name))
                if not response.ok:
                    raise RuntimeError(f"pre-warm of {name}: {response}")
        return service, time.perf_counter() - started

    def setup_only(self) -> float:
        async def once() -> float:
            service, seconds = await self.setup(False)
            await service.drain()
            return seconds

        return asyncio.run(once())

    def drive(self, seconds: float, traced: bool = False) -> Drive:
        async def once() -> Drive:
            service, setup_s = await self.setup(traced)
            drive = Drive(setup_s=setup_s, traced=traced)
            cpu_before = cpu_seconds()
            jiffies = host_jiffies()
            try:
                await self.load(service, drive, seconds)
            finally:
                drive.steal_share = steal_share(jiffies)
                drive.cpu_s = cpu_seconds() - cpu_before
                drive.peak_rss_mb = drive.peak_rss_mb or peak_rss_mb()
                report = await service.drain()
            if traced:
                self.observe(service, report, drive)
            return drive

        return asyncio.run(once())

    async def load(self, service, drive: Drive, seconds: float) -> None:
        raise NotImplementedError

    @staticmethod
    def observe(service, report, drive: Drive) -> None:
        """Copy what the program's public reports say about its layers."""
        cache = report.cache or {}
        drive.observed.update(
            groups_dispatched=report.groups_dispatched,
            grouped_queries=report.grouped_queries,
            cache_hits=cache.get("hits", 0),
            cache_misses=cache.get("misses", 0),
            cache_evictions=cache.get("evictions", 0),
            fallbacks=report.fallbacks,
            ledgers={
                ledger.trace_id: dict(ledger.phases)
                for ledger in service.ledgers.closed()
            },
        )


class ServeCold(ServeWorkload):
    """Open loop, every answer executed (no cache)."""

    name = "serve_cold"

    def make_inputs(self) -> None:
        self.make_paper_day()
        self.arrivals = self.make_arrivals(self.seconds)

    def make_arrivals(self, seconds: float) -> list:
        """A Poisson trace conditioned on its count, span and mix.

        ``generate_arrivals`` draws the gaps and tenants; the times are
        then scaled so that the last arrival falls at the end of the
        open-loop phase, and the queries are a shuffle of equally many
        of each.  Left to chance, the count alone (51 +/- 7 at the
        nominal size) moved the offered rate, and with it the median
        latency, by 40 % from one seed to the next.
        """
        from repro.serving import generate_arrivals

        names = sorted(self.catalog)
        duration = seconds * self.sizes["open_share"]
        count = len(names) * max(
            1, round(self.sizes["rate"] * duration / len(names))
        )
        drawn = generate_arrivals(
            names, rate=self.sizes["rate"], duration=math.inf,
            seed=self.seed, tenants=TENANTS, max_arrivals=count,
        )
        queries = names * (count // len(names))
        random.Random(self.seed).shuffle(queries)
        scale = duration / drawn[-1].at
        return [
            replace(arrival, at=arrival.at * scale, query=query)
            for arrival, query in zip(drawn, queries)
        ]

    def input_parts(self) -> list:
        return [self.records, [a.to_dict() for a in self.arrivals]]

    async def load(self, service, drive: Drive, seconds: float) -> None:
        oracle = self.oracle()
        arrivals = (
            self.arrivals
            if seconds == self.seconds
            else self.make_arrivals(seconds)
        )
        #: query name -> open-loop latencies of its correct answers
        by_query = {name: [] for name in self.catalog}
        loop_started = time.perf_counter()

        async def one(arrival, due: float, open_loop: bool) -> bool:
            """Submit, check against the oracle; returns correctness."""
            jiffies = host_jiffies()
            response = await service.submit(
                self.request(arrival.query, arrival.tenant)
            )
            done = time.perf_counter()
            drive.attempted += 1
            if not response.ok or (
                result_digest(response.result) != oracle[arrival.query]
            ):
                drive.fail(why_failed(arrival.query, response))
                return False
            if open_loop:
                by_query[arrival.query].append(
                    net_seconds(due, jiffies, done) * 1000.0
                )
                drive.span(due, done, response.trace_id)
            return True

        # Phase A: open loop at a fixed sub-saturation rate; latency is
        # taken from the instant each arrival was due.
        tasks = []
        for arrival in arrivals:
            due = loop_started + arrival.at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            drive.lateness_ms.append((time.perf_counter() - due) * 1000.0)
            tasks.append(asyncio.create_task(one(arrival, due, True)))
        await asyncio.gather(*tasks)
        drive.latencies_ms = [
            value for values in by_query.values() for value in values
        ]
        # The catalog's six queries cost 40 to 200 ms, so the median of
        # the mix sits between two queries' clusters and jumps with the
        # mix; the median query's median latency does not.
        drive.latency_p50_ms = statistics.median(
            statistics.median(values)
            for values in by_query.values() if values
        )

        # Phase B: the same trace submitted at once, again until the
        # run's time is up; saturated throughput is the best burst's
        # correct answers over the wall time to drain them.
        while True:
            started, jiffies = time.perf_counter(), host_jiffies()
            correct = await asyncio.gather(
                *[
                    asyncio.create_task(one(arrival, started, False))
                    for arrival in arrivals
                ]
            )
            ended = time.perf_counter()
            drive.throughput_qps = max(
                drive.throughput_qps,
                sum(correct) / net_seconds(started, jiffies, ended),
            )
            if ended - loop_started >= seconds:
                break


class ServeHot(ServeWorkload):
    """Closed loop, every answer from the cache."""

    name = "serve_hot"
    cached = True
    #: After each query was checked once, one answer in this many is
    #: digested against the oracle: digesting every answer would be
    #: most of the client's CPU, and so most of the measured latency.
    CHECK_EVERY = 100

    def make_inputs(self) -> None:
        self.make_paper_day()
        rng = random.Random(self.seed)
        names = sorted(self.catalog)
        self.trace = [
            (rng.choice(names), f"tenant-{rng.randrange(TENANTS)}")
            for _ in range(50_000)
        ]

    def input_parts(self) -> list:
        return [self.records, self.trace]

    async def load(self, service, drive: Drive, seconds: float) -> None:
        oracle = self.oracle()
        trace = self.trace
        cursor = 0
        unchecked = set(self.catalog)
        done_s = []
        deadline = time.perf_counter() + seconds

        async def client() -> None:
            nonlocal cursor
            while True:
                begun = time.perf_counter()
                if begun >= deadline:
                    return
                index = cursor
                cursor += 1
                if index == self.sizes["rss_after"]:
                    # The daemon keeps a ledger per answer, so memory
                    # follows the answer count: read it at a fixed one.
                    drive.peak_rss_mb = peak_rss_mb()
                query, tenant = trace[index % len(trace)]
                response = await service.submit(self.request(query, tenant))
                done = time.perf_counter()
                correct = response.ok
                if correct and (
                    query in unchecked or index % self.CHECK_EVERY == 0
                ):
                    unchecked.discard(query)
                    correct = result_digest(response.result) == oracle[query]
                if correct:
                    drive.latencies_ms.append((done - begun) * 1000.0)
                    done_s.append(done)
                    drive.span(begun, done, response.trace_id)
                else:
                    drive.fail(why_failed(query, response))

        await asyncio.gather(
            *[client() for _ in range(self.sizes["clients"])]
        )
        drive.attempted = cursor
        drive.throughput_qps, drive.latency_p50_ms = best_slices(
            done_s, drive.latencies_ms, width=0.1
        )


class Answer(NamedTuple):
    """One served answer of ``serve_append``, kept until it is checked."""

    query: str
    #: Appends installed when the query was submitted / answered: the
    #: answer may reflect any whole prefix in between.
    low: int
    high: int
    digest: tuple
    done_s: float
    latency_ms: float


class ServeAppend(ServeWorkload):
    """Closed loop: one analyst reading, one log shipper appending."""

    name = "serve_append"
    cached = True

    def make_inputs(self) -> None:
        from repro.workload import (
            session_stream,
            streaming_query,
            streaming_schema,
            weblog_query,
        )

        sizes = self.sizes
        self.schema = streaming_schema(days=1)
        self.catalog = {
            "stream": streaming_query(self.schema),
            "weblog": weblog_query(self.schema),
        }
        partitions = list(
            session_stream(
                self.schema,
                sizes["base_partitions"] + sizes["appends"],
                sizes["partition_records"],
                seed=self.seed,
            )
        )
        base = sizes["base_partitions"]
        self.records = [
            record for partition in partitions[:base] for record in partition
        ]
        self.deltas = partitions[base:]
        rng = random.Random(self.seed)
        self.trace = [
            "stream" if rng.random() < sizes["maintainable_share"]
            else "weblog"
            for _ in range(10_000)
        ]
        #: The oracle's one growing prefix ``(appends applied, records)``
        #: and its digests by ``(query, appends applied)``.
        self._prefix = (0, list(self.records))
        self._oracle: dict = {}

    def input_parts(self) -> list:
        return [self.records, self.deltas, self.trace]

    def replay_inputs(self) -> tuple:
        return self.records, self.deltas[0]

    async def load(self, service, drive: Drive, seconds: float) -> None:
        think = self.sizes["think_ms"] / 1000.0
        interval = seconds / (len(self.deltas) + 1)
        applied = 0  # appends installed so far
        answers = []
        observed = drive.observed
        started, jiffies = time.perf_counter(), host_jiffies()
        deadline = started + seconds

        async def analyst() -> None:
            index = 0
            while time.perf_counter() < deadline:
                query = self.trace[index % len(self.trace)]
                index += 1
                before = applied
                begun = time.perf_counter()
                response = await service.submit(self.request(query))
                done = time.perf_counter()
                drive.attempted += 1
                if response.ok:
                    # A submission that met an append at the gate is
                    # answered over the grown data, so any prefix of
                    # the interval is a whole-prefix answer.
                    answers.append(Answer(
                        query, before, applied,
                        result_digest(response.result),
                        done, (done - begun) * 1000.0,
                    ))
                    drive.span(begun, done, response.trace_id)
                else:
                    drive.fail(why_failed(query, response))
                await asyncio.sleep(think)

        async def shipper() -> None:
            nonlocal applied
            for index, delta in enumerate(self.deltas):
                due = started + (index + 1) * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                begun = time.perf_counter()
                drive.lateness_ms.append((begun - due) * 1000.0)
                report = await service.append(delta)
                done = time.perf_counter()
                applied += 1
                drive.attempted += 1
                drive.append_ms.append((done - begun) * 1000.0)
                drive.span(begun, done, f"append-{index}")
                for action in ("patched", "regional", "stale"):
                    observed[action] = (
                        observed.get(action, 0) + report.count(action)
                    )
                observed.setdefault("apply_ms", []).append(
                    report.duration * 1000.0
                )

        await asyncio.gather(analyst(), shipper())
        wall = net_seconds(started, jiffies, time.perf_counter())
        correct = [
            answer for answer in answers if self.matches_a_prefix(answer)
        ]
        for answer in answers:
            if answer not in correct:
                drive.fail(
                    f"{answer.query}: no prefix from {answer.low} to "
                    f"{answer.high} appends gives this answer"
                )
        query_ms = [answer.latency_ms for answer in correct]
        drive.latencies_ms = query_ms + drive.append_ms
        drive.throughput_qps = len(drive.latencies_ms) / wall
        # The median query is a patched or cached answer; the appends
        # and re-executed medians are in the throughput and the SLO.
        _best, drive.latency_p50_ms = best_slices(
            [answer.done_s for answer in correct], query_ms, width=1.0
        )

    def matches_a_prefix(self, answer: Answer) -> bool:
        """Does the answer equal the oracle over a prefix it may reflect?

        One prefix is kept and grown; answers arrive in prefix order
        within a drive, and a second drive starts over from the base.
        """
        from repro.local import evaluate_centralized

        for applied in range(answer.low, answer.high + 1):
            key = (answer.query, applied)
            if key not in self._oracle:
                known, records = self._prefix
                if applied < known:
                    known, records = 0, list(self.records)
                for delta in self.deltas[known:applied]:
                    records.extend(delta)
                self._prefix = (applied, records)
                self._oracle[key] = result_digest(
                    evaluate_centralized(self.catalog[answer.query], records)
                )
            if answer.digest == self._oracle[key]:
                return True
        return False


# -- one-shot evaluation ------------------------------------------------------


class OneshotScan(Workload):
    """Closed loop, one caller: Q1-Q6 over uniform and skewed data on
    the evaluator ``repro run`` builds."""

    name = "oneshot_scan"
    tracer = "repro.obs.Tracer"

    def make_inputs(self) -> None:
        from repro.workload import (
            all_queries,
            generate_skewed,
            generate_uniform,
            paper_schema,
        )

        sizes = self.sizes
        self.schema = paper_schema(days=sizes["days"], temporal_base="minute")
        self.catalog = all_queries(self.schema)
        self.datasets = {
            "uniform": generate_uniform(
                self.schema, sizes["records"], seed=self.seed
            ),
            "skewed": generate_skewed(
                self.schema, sizes["records"], seed=self.seed,
                skew_fraction=SKEW_FRACTION,
            ),
        }
        self.records = self.datasets["skewed"]

    def input_parts(self) -> list:
        return [self.datasets["uniform"], self.datasets["skewed"]]

    def make_evaluate(self, traced: bool):
        """``evaluate(workflow, records) -> ResultSet``."""
        from repro.mapreduce import ClusterConfig, SimulatedCluster
        from repro.parallel import ParallelEvaluator

        evaluator = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=MACHINES)),
            **self.tracing(traced),
        )
        return lambda workflow, records: evaluator.evaluate(
            workflow, records
        ).result

    def setup_only(self) -> float:
        started = time.perf_counter()
        self.make_evaluate(False)
        return time.perf_counter() - started

    def drive(self, seconds: float, traced: bool = False) -> Drive:
        from repro.local import evaluate_centralized

        oracle = {
            (dataset, name): evaluate_centralized(workflow, records)
            for dataset, records in self.datasets.items()
            for name, workflow in self.catalog.items()
        }
        drive = Drive(traced=traced)
        started = time.perf_counter()
        evaluate = self.make_evaluate(traced)
        drive.setup_s = time.perf_counter() - started
        cpu_before = cpu_seconds()
        loop_jiffies = host_jiffies()
        #: (dataset, query) -> one latency per pass
        timings = {key: [] for key in oracle}
        started = time.perf_counter()
        # Whole passes only, so every run times the same mix of
        # queries; stop when half of another pass would not fit.
        while True:
            pass_started = time.perf_counter()
            for (dataset, name), expected in oracle.items():
                begun, jiffies = time.perf_counter(), host_jiffies()
                result = evaluate(self.catalog[name], self.datasets[dataset])
                done = time.perf_counter()
                drive.attempted += 1
                if result == expected:
                    timings[dataset, name].append(
                        net_seconds(begun, jiffies, done) * 1000.0
                    )
                    drive.span(
                        begun, done, f"{dataset}-{name}-{drive.attempted}"
                    )
                else:
                    drive.fail(f"{name} on {dataset}: wrong answer")
            now = time.perf_counter()
            if now - started + (now - pass_started) / 2 > seconds:
                break
        drive.steal_share = steal_share(loop_jiffies)
        drive.cpu_s = cpu_seconds() - cpu_before
        drive.peak_rss_mb = peak_rss_mb()
        drive.latencies_ms = [
            value for values in timings.values() for value in values
        ]
        # Each evaluation's median over the passes, then the median
        # evaluation, and evaluations per second of a median pass: with
        # a handful of passes the median repeats better than the best.
        typical = [
            statistics.median(values) for values in timings.values() if values
        ]
        drive.latency_p50_ms = statistics.median(typical)
        drive.throughput_qps = len(typical) / (sum(typical) / 1000.0)
        return drive


class OneshotProcess(OneshotScan):
    """The same scans on real worker processes over shared memory."""

    name = "oneshot_process"

    def make_evaluate(self, traced: bool):
        from repro.parallel.multiprocess import MultiprocessEvaluator

        # Transport stays "auto" (shared memory where the platform has
        # it); the pool is started and torn down inside every call.
        evaluator = MultiprocessEvaluator(
            processes=os.cpu_count(), **self.tracing(traced)
        )
        return lambda workflow, records: evaluator.evaluate(
            workflow, records
        )[0]

    def drive(self, seconds: float, traced: bool = False) -> Drive:
        from repro.parallel.shm import leaked_segments

        drive = super().drive(seconds, traced)
        # A segment left behind is a failed operation of this workload.
        for segment in leaked_segments():
            drive.fail(f"shared-memory segment {segment} left behind")
        return drive


WORKLOADS = {
    workload.name: workload
    for workload in (
        ServeCold, ServeHot, ServeAppend, OneshotScan, OneshotProcess
    )
}
