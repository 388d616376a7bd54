"""Run manifests: one JSON artifact per evaluation, fully reproducible.

A :class:`RunManifest` captures everything needed to interpret (and
re-run) one evaluation after the fact: the query, the chosen plan, the
cluster and execution configuration, the full
:class:`~repro.mapreduce.counters.JobCounters` and
:class:`~repro.mapreduce.counters.PhaseBreakdown`, per-reducer loads,
the final telemetry frame, and the environment (Python version,
platform, git commit).  ``repro trace`` writes one next to every
exported trace; ``repro stats`` renders one back into a human summary.

Counters and breakdowns are serialized field-by-field via
:func:`dataclasses.fields`, so the manifest schema follows the engine's
counter set automatically and :meth:`RunManifest.job_counters`
round-trips bit-identically to the original report.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pathlib
import platform
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Optional

from repro.mapreduce.counters import JobCounters, PhaseBreakdown
from repro.obs.calibration import CalibrationReport

__all__ = [
    "RunManifest",
    "counters_from_dict",
    "counters_to_dict",
    "environment_info",
]

#: Manifest schema version, bumped on incompatible layout changes.
#: v2 added the ``calibration`` section (predicted-vs-measured audit of
#: the cost model); v3 added the ``batch`` section (share groups and
#: measure-cache traffic of ``repro batch`` runs); v4 added the
#: ``workers`` section (per-worker resource accounting and counters
#: merged from the cross-process telemetry channel) and the
#: ``telemetry`` section (the final live-telemetry frame); v5 added the
#: ``serving`` section (the ``repro serve`` daemon's post-mortem:
#: arrivals, sheds by reason, deadline misses, admission-window and
#: breaker activity, latency percentiles) plus the batch section's
#: ``resumed_components`` count; v6 added the ``tracing`` section (the
#: latency-attribution ledger book: per-query phase breakdowns that sum
#: to end-to-end latency, per-tenant means, completeness counts); v7
#: added the ``slo`` section (per-tenant latency objectives with
#: lifetime good/bad counts and windowed burn rates); v8 added the
#: ``incremental`` section (the append flow's maintenance report:
#: per-measure delta classification and patch/regional/derived/
#: recomputed outcomes, fingerprints, partition-chain length); v9
#: dropped the ``metrics`` section -- its counters, gauges and load
#: histogram live in ``telemetry``.  Older manifests still load, with
#: the newer sections empty and a v1-v8 ``metrics`` section dropped;
#: manifests *newer* than this reader load too, with a one-line warning
#: and any unknown fields dropped.
SCHEMA_VERSION = 9

logger = logging.getLogger(__name__)


def counters_to_dict(counters: JobCounters) -> dict:
    """Serialize counters field-by-field (``extra`` becomes a mapping)."""
    data = {}
    for f in dataclasses.fields(counters):
        value = getattr(counters, f.name)
        data[f.name] = dict(value) if isinstance(value, Counter) else value
    return data


def counters_from_dict(data: dict) -> JobCounters:
    """Rebuild :class:`JobCounters`; inverse of :func:`counters_to_dict`."""
    kwargs = dict(data)
    kwargs["extra"] = Counter(kwargs.get("extra", {}))
    return JobCounters(**kwargs)


def breakdown_to_dict(breakdown: PhaseBreakdown) -> dict:
    """Serialize a phase breakdown field-by-field."""
    return {
        f.name: getattr(breakdown, f.name)
        for f in dataclasses.fields(breakdown)
    }


def breakdown_from_dict(data: dict) -> PhaseBreakdown:
    """Rebuild a :class:`PhaseBreakdown` from its mapping form."""
    return PhaseBreakdown(**data)


def _config_section(cluster_config, execution_config) -> dict:
    """The ``config`` section: whichever of the two dataclasses is set."""
    config: dict = {}
    if cluster_config is not None:
        config["cluster"] = dataclasses.asdict(cluster_config)
    if execution_config is not None:
        config["execution"] = dataclasses.asdict(execution_config)
    return config


def git_revision() -> Optional[str]:
    """The repository's current commit sha, or ``None`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=str(pathlib.Path(__file__).parent),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment_info() -> dict:
    """Python/platform/git facts pinned into every manifest."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "git_sha": git_revision(),
    }


#: Field annotations (strings, under postponed evaluation) of the
#: manifest's container sections, and the JSON shape each must load as.
_SECTION_SHAPES = {"dict": dict, "list": list}


@dataclass
class RunManifest:
    """Everything about one evaluation, as a JSON-ready record."""

    query: str
    plan: str
    response_time: float
    map_makespan: float
    reduce_makespan: float
    counters: dict
    breakdown: dict
    reducer_loads: list
    load_imbalance: float
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=environment_info)
    #: Fault plan, retry policy and per-phase recovery accounting when
    #: the run executed under chaos (empty for clean runs); mirrors
    #: :attr:`repro.mapreduce.counters.JobReport.faults`.
    faults: dict = field(default_factory=dict)
    #: Predicted-vs-measured cost-model audit
    #: (:meth:`repro.obs.calibration.CalibrationReport.to_dict`); empty
    #: when the run predates schema v2 or the executor skipped it.
    calibration: dict = field(default_factory=dict)
    #: Batch-run section (schema v3): share groups with members and
    #: per-group calibration, component dispositions, and measure-cache
    #: hit/miss/store counts.  Empty for single-query runs and for
    #: manifests written before v3.
    batch: dict = field(default_factory=dict)
    #: Per-worker resource accounting (schema v4): one section per
    #: worker process merged from the telemetry channel -- cumulative
    #: counters (tasks, rows) and the final resource odometer (CPU
    #: seconds, RSS bytes, GC collections).  Empty for in-process runs
    #: and for manifests written before v4.
    workers: dict = field(default_factory=dict)
    #: Serving-daemon section (schema v5):
    #: :meth:`repro.serving.daemon.ServeReport.to_dict` written at
    #: graceful drain -- offered/completed/shed traffic, deadline
    #: misses, admission-window and circuit-breaker activity, queue
    #: high-water marks and end-to-end latency percentiles.  Empty for
    #: non-serving runs and manifests written before v5.
    serving: dict = field(default_factory=dict)
    #: Final telemetry frame (schema v4):
    #: :meth:`repro.obs.telemetry.TelemetryRegistry.snapshot` of the
    #: run's last state -- job counters, ``job.*``/``optimizer.*``/
    #: ``calibration.*`` gauges and the ``job.reducer_load`` histogram
    #: for ``repro trace``/``batch``.  Empty when no registry was kept.
    telemetry: dict = field(default_factory=dict)
    #: Latency-attribution ledger book (schema v6):
    #: :meth:`repro.obs.ledger.LedgerBook.to_dict` -- per-query phase
    #: breakdowns (queue wait, admission hold, cache lookup, planning,
    #: map, shuffle, reduce, retry overhead, result split) that tile
    #: end-to-end latency, plus per-tenant means and the count of
    #: ledgers whose residual stayed within tolerance.  Empty for
    #: non-serving runs and manifests written before v6.
    tracing: dict = field(default_factory=dict)
    #: SLO section (schema v7):
    #: :meth:`repro.obs.slo.SloTracker.snapshot` -- per-tenant latency
    #: objectives with lifetime good/bad counts and the windowed
    #: error-budget burn rate.  Empty when no objective was set and for
    #: manifests written before v7.
    slo: dict = field(default_factory=dict)
    #: Incremental-maintenance section (schema v8):
    #: :meth:`repro.serving.incremental.AppendReport.to_dict` plus the
    #: partition-chain length and the verification verdict -- what one
    #: ``repro append`` did to the measure cache: per-measure delta
    #: classification (patchable/regional/full) and the action taken
    #: (patched, regional repair, derived, recomputed, left stale).
    #: Empty for non-append runs and manifests written before v8.
    incremental: dict = field(default_factory=dict)
    created_at: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S%z")
    )
    schema_version: int = SCHEMA_VERSION

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        outcome,
        query: str = "",
        cluster_config=None,
        execution_config=None,
        workers=None,
        telemetry=None,
    ) -> "RunManifest":
        """Build a manifest from a parallel evaluation outcome.

        *outcome* is a :class:`~repro.parallel.report.ParallelResult`
        (anything with ``.plan`` and ``.job``); the configs are the
        dataclasses used for the run, *workers* the per-worker sections
        from :meth:`repro.obs.telemetry.TelemetryRegistry.worker_totals`,
        and *telemetry* the registry's final snapshot.
        """
        report = outcome.job
        calibration = getattr(outcome, "calibration", None)
        return cls(
            query=query,
            plan=outcome.plan.describe(),
            response_time=report.response_time,
            map_makespan=report.map_makespan,
            reduce_makespan=report.reduce_makespan,
            counters=counters_to_dict(report.counters),
            breakdown=breakdown_to_dict(report.breakdown),
            reducer_loads=list(report.reducer_loads),
            load_imbalance=report.load_imbalance,
            config=_config_section(cluster_config, execution_config),
            faults=dict(getattr(report, "faults", {}) or {}),
            calibration=(
                calibration.to_dict() if calibration is not None else {}
            ),
            workers=dict(workers or {}),
            telemetry=dict(telemetry or {}),
        )

    @classmethod
    def from_batch(
        cls,
        outcome,
        cluster_config=None,
        execution_config=None,
        telemetry=None,
    ) -> "RunManifest":
        """Build a manifest from a batch evaluation outcome.

        *outcome* is a :class:`~repro.serving.executor.BatchResult`.
        Counters, phase breakdowns and reducer loads aggregate over the
        batch's shared jobs; the ``batch`` section keeps the per-group
        detail (members, attempts, per-group calibration) plus the
        component dispositions and cache traffic.  *telemetry* is the
        registry's final snapshot.
        """
        counters = JobCounters()
        breakdown = PhaseBreakdown()
        reducer_loads: list = []
        response_time = 0.0
        map_makespan = 0.0
        reduce_makespan = 0.0
        groups = []
        for group_outcome in outcome.groups:
            entry = {
                "queries": list(group_outcome.group.queries),
                "members": [
                    {"query": query, "measures": measures}
                    for query, measures in group_outcome.group.members()
                ],
                "plan": group_outcome.group.plan.describe(),
                "attempts": group_outcome.attempts,
                "succeeded": group_outcome.succeeded,
            }
            job = group_outcome.result
            if job is not None:
                report = job.job
                counters.add(report.counters)
                breakdown.add(report.breakdown)
                reducer_loads.extend(report.reducer_loads)
                response_time += report.response_time
                map_makespan += report.map_makespan
                reduce_makespan += report.reduce_makespan
                entry["response_time"] = report.response_time
                entry["shuffle_bytes"] = report.counters.shuffle_bytes
                if job.calibration is not None:
                    entry["calibration"] = job.calibration.to_dict()
            else:
                entry["error"] = group_outcome.error
            groups.append(entry)
        loads = reducer_loads
        imbalance = (
            max(loads) / (sum(loads) / len(loads))
            if loads and sum(loads)
            else 0.0
        )
        plan = outcome.plan
        return cls(
            query="batch(" + ", ".join(sorted(outcome.results)) + ")",
            plan=(
                f"{len(plan.queries)} queries -> "
                f"{len(outcome.groups)} shared jobs"
            ),
            response_time=response_time,
            map_makespan=map_makespan,
            reduce_makespan=reduce_makespan,
            counters=counters_to_dict(counters),
            breakdown=breakdown_to_dict(breakdown),
            reducer_loads=loads,
            load_imbalance=imbalance,
            config=_config_section(cluster_config, execution_config),
            telemetry=dict(telemetry or {}),
            batch={
                "queries": sorted(outcome.results),
                "groups": groups,
                "dispositions": plan.disposition_counts(),
                "resumed_components": outcome.resumed_components,
                "jobless_queries": list(outcome.jobless_queries),
                "cache": (
                    outcome.cache_stats.to_dict()
                    if outcome.cache_stats is not None
                    else {}
                ),
                "decision": plan.decision.to_dict(),
            },
        )

    @classmethod
    def from_serve(
        cls,
        report,
        query: str = "",
        cluster_config=None,
        execution_config=None,
        telemetry=None,
        tracing=None,
        slo=None,
    ) -> "RunManifest":
        """Build a manifest from a serving daemon's drain report.

        *report* is a :class:`~repro.serving.daemon.ServeReport` (or
        its ``to_dict`` form).  A serving manifest has no single job,
        so the per-job fields are zero; the story lives in the
        ``serving`` section.  *tracing* is the daemon's ledger book
        (:meth:`repro.obs.ledger.LedgerBook.to_dict`) and *slo* the
        tracker snapshot (:meth:`repro.obs.slo.SloTracker.snapshot`).
        """
        serving = report if isinstance(report, dict) else report.to_dict()
        latency = serving.get("latency_ms", {})
        return cls(
            query=query
            or f"serve({serving.get('arrivals', 0)} arrivals)",
            plan=(
                f"{serving.get('groups_dispatched', 0)} share groups "
                "over the admission window"
            ),
            response_time=latency.get("p99", 0.0) / 1000.0,
            map_makespan=0.0,
            reduce_makespan=0.0,
            counters=counters_to_dict(JobCounters()),
            breakdown=breakdown_to_dict(PhaseBreakdown()),
            reducer_loads=[],
            load_imbalance=0.0,
            config=_config_section(cluster_config, execution_config),
            serving=serving,
            telemetry=dict(telemetry or {}),
            tracing=dict(tracing or {}),
            slo=dict(slo or {}),
        )

    @classmethod
    def from_append(
        cls,
        report,
        query: str = "",
        cluster_config=None,
        execution_config=None,
        partitions: int = 0,
        verified: Optional[bool] = None,
        telemetry=None,
    ) -> "RunManifest":
        """Build a manifest from an incremental append's report.

        *report* is a :class:`~repro.serving.incremental.AppendReport`
        (or its ``to_dict`` form).  An append runs no MapReduce job, so
        the per-job fields are zero; the story lives in the
        ``incremental`` section.  *partitions* is the length of the
        dataset's partition chain after the append and *verified* the
        outcome of the optional cold-recompute bit-identity check
        (``None`` when the check was skipped).
        """
        section = report if isinstance(report, dict) else report.to_dict()
        outcomes = section.get("outcomes", [])
        actions = Counter(o.get("action", "?") for o in outcomes)
        section = dict(section)
        section["partitions"] = partitions
        if verified is not None:
            section["verified"] = bool(verified)
        return cls(
            query=query
            or f"append({section.get('delta_records', 0)} records)",
            plan=", ".join(
                f"{action}={count}"
                for action, count in sorted(actions.items())
            )
            or "no cached measures",
            response_time=section.get("duration", 0.0),
            map_makespan=0.0,
            reduce_makespan=0.0,
            counters=counters_to_dict(JobCounters()),
            breakdown=breakdown_to_dict(PhaseBreakdown()),
            reducer_loads=[],
            load_imbalance=0.0,
            config=_config_section(cluster_config, execution_config),
            telemetry=dict(telemetry or {}),
            incremental=section,
        )

    # -- round-trips ------------------------------------------------------------

    def job_counters(self) -> JobCounters:
        """The run's counters, identical to the original report's."""
        return counters_from_dict(self.counters)

    def phase_breakdown(self) -> PhaseBreakdown:
        """The run's phase breakdown as a live object."""
        return breakdown_from_dict(self.breakdown)

    def to_dict(self) -> dict:
        """The JSON document this manifest serializes to."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Rebuild a manifest from its JSON document.

        Raises :class:`TypeError` for valid JSON of the wrong shape: a
        top level that is not an object, or a section that is not the
        object or array its field declares.
        """
        if not isinstance(data, dict):
            raise TypeError(
                f"top level is a {type(data).__name__}, not an object"
            )
        for spec in dataclasses.fields(cls):
            shape = _SECTION_SHAPES.get(spec.type)
            if (
                shape is not None
                and spec.name in data
                and not isinstance(data[spec.name], shape)
            ):
                raise TypeError(
                    f"section {spec.name!r} is a "
                    f"{type(data[spec.name]).__name__}, not a {spec.type}"
                )
        version = data.get("schema_version", SCHEMA_VERSION)
        known = {f.name for f in dataclasses.fields(cls)}
        if isinstance(version, int) and version > SCHEMA_VERSION:
            dropped = sorted(set(data) - known)
            logger.warning(
                "manifest schema v%d is newer than this reader (v%d); "
                "loading the known fields%s",
                version,
                SCHEMA_VERSION,
                f" and ignoring {', '.join(dropped)}" if dropped else "",
            )
        return cls(**{k: v for k, v in data.items() if k in known})

    # -- persistence ------------------------------------------------------------

    def write(self, target: str | IO[str]) -> None:
        """Write the manifest as indented JSON to a path or stream."""
        if isinstance(target, str):
            with open(target, "w") as handle:
                self.write(handle)
            return
        json.dump(self.to_dict(), target, indent=2, sort_keys=True)
        target.write("\n")

    @classmethod
    def load(cls, source: str | IO[str]) -> "RunManifest":
        """Read a manifest back from a path or stream."""
        if isinstance(source, str):
            with open(source) as handle:
                return cls.load(handle)
        return cls.from_dict(json.load(source))

    # -- presentation -----------------------------------------------------------

    def summary(self) -> str:
        """A multi-line human summary (what ``repro stats`` prints)."""
        breakdown = self.phase_breakdown()
        counters = self.job_counters()
        lines = [
            f"run of {self.created_at}  (schema v{self.schema_version})",
            f"query: {self.query}" if self.query else "query: (unrecorded)",
            f"plan:  {self.plan}",
            (
                f"simulated response time {self.response_time:.4f}s "
                f"(map {self.map_makespan:.4f}s + "
                f"reduce {self.reduce_makespan:.4f}s)"
            ),
            "phases: "
            + "  ".join(
                f"{name}={value:.4f}s"
                for name, value in self.breakdown.items()
            ),
            "cumulative: "
            + "  ".join(
                f"{name}={value:.4f}s"
                for name, value in breakdown.cumulative().items()
            ),
            "counters:",
        ]
        for name, value in sorted(self.counters.items()):
            if name == "extra":
                for key, extra_value in sorted(value.items()):
                    lines.append(f"  extra.{key:<26} {extra_value}")
            else:
                lines.append(f"  {name:<32} {value}")
        loads = self.reducer_loads
        if loads:
            lines.append(
                f"reducers: {len(loads)} loads, max {max(loads)}, "
                f"imbalance {self.load_imbalance:.2f} "
                f"(replication x{counters.replication_factor:.2f})"
            )
        if self.calibration:
            lines.append(
                CalibrationReport.from_dict(self.calibration).describe()
            )
        if self.batch:
            dispositions = self.batch.get("dispositions", {})
            lines.append(
                f"batch: {len(self.batch.get('queries', []))} queries, "
                f"{len(self.batch.get('groups', []))} shared jobs "
                f"(components: {dispositions.get('execute', 0)} executed, "
                f"{dispositions.get('derive', 0)} derived, "
                f"{dispositions.get('cache', 0)} cached)"
            )
            for index, group in enumerate(self.batch.get("groups", [])):
                status = (
                    f"{group.get('response_time', 0.0):.4f}s, "
                    f"{group.get('shuffle_bytes', 0)} shuffle bytes, "
                    f"{group.get('attempts', 1)} attempt(s)"
                    if group.get("succeeded", True)
                    else f"FAILED: {group.get('error', '?')}"
                )
                lines.append(
                    f"  group {index} "
                    f"[{', '.join(group.get('queries', []))}]: {status}"
                )
            jobless = self.batch.get("jobless_queries", [])
            if jobless:
                lines.append(
                    f"  answered without a job: {', '.join(jobless)}"
                )
            resumed = self.batch.get("resumed_components", 0)
            if resumed:
                lines.append(
                    f"  resumed from cache: {resumed} component(s)"
                )
            cache = self.batch.get("cache", {})
            if cache:
                lines.append(
                    f"cache: {cache.get('hits', 0)} hits, "
                    f"{cache.get('misses', 0)} misses, "
                    f"{cache.get('stores', 0)} stores"
                    + (
                        f", {cache.get('corrupt', 0)} corrupt"
                        if cache.get("corrupt")
                        else ""
                    )
                )
        if self.serving:
            serving = self.serving
            shed = serving.get("shed", {})
            latency = serving.get("latency_ms", {})
            lines.append(
                f"serving: {serving.get('arrivals', 0)} arrivals, "
                f"{serving.get('completed', 0)} completed, "
                f"{sum(shed.values())} shed, "
                f"{serving.get('deadline_missed', 0)} deadline missed, "
                f"{serving.get('errors', 0)} errors"
                + (" (drained cleanly)" if serving.get("drained") else "")
            )
            if shed:
                lines.append(
                    "  shed by reason: "
                    + ", ".join(
                        f"{reason}={count}"
                        for reason, count in sorted(shed.items())
                    )
                )
            if latency.get("count"):
                lines.append(
                    f"  latency: p50 {latency.get('p50', 0.0):.1f}ms, "
                    f"p95 {latency.get('p95', 0.0):.1f}ms, "
                    f"p99 {latency.get('p99', 0.0):.1f}ms "
                    f"(max {latency.get('max', 0.0):.1f}ms over "
                    f"{latency.get('count', 0)} queries)"
                )
            admission = serving.get("admission", {})
            if admission:
                lines.append(
                    f"  admission: {admission.get('offered', 0)} offered, "
                    f"{admission.get('merges_accepted', 0)} merges won "
                    f"({admission.get('free_joins', 0)} free), "
                    f"{admission.get('merges_rejected', 0)} lost, "
                    f"{serving.get('groups_dispatched', 0)} groups "
                    f"({serving.get('grouped_queries', 0)} members)"
                )
            if serving.get("fallbacks") or serving.get("breaker_trips"):
                lines.append(
                    f"  breaker: {serving.get('breaker_trips', 0)} trips, "
                    f"{serving.get('fallbacks', 0)} centralized fallbacks"
                )
        if self.tracing:
            total = self.tracing.get("total", 0)
            complete = self.tracing.get("complete", 0)
            lines.append(
                f"ledger: {total} queries attributed, "
                f"{complete} within tolerance"
            )
            for tenant, section in sorted(
                self.tracing.get("tenants", {}).items()
            ):
                phases = section.get("mean_phase_ms", {})
                top = sorted(
                    phases.items(), key=lambda kv: -kv[1]
                )[:3]
                detail = ", ".join(
                    f"{name} {value:.1f}ms" for name, value in top
                )
                lines.append(
                    f"  {tenant}: {section.get('queries', 0)} queries, "
                    f"mean {section.get('mean_total_ms', 0.0):.1f}ms "
                    f"(residual {section.get('mean_residual_ms', 0.0):.1f}ms)"
                    + (f" -- {detail}" if detail else "")
                )
        if self.slo:
            for tenant, section in sorted(
                self.slo.get("tenants", {}).items()
            ):
                lines.append(
                    f"slo {tenant}: "
                    f"{section.get('objective_ms', 0.0):.0f}ms @ "
                    f"{section.get('target', 0.0):.2%}, "
                    f"{section.get('good', 0)} good / "
                    f"{section.get('bad', 0)} bad, "
                    f"burn {section.get('burn_rate', 0.0):.2f}x"
                )
        if self.incremental:
            inc = self.incremental
            outcomes = inc.get("outcomes", [])
            actions = Counter(o.get("action", "?") for o in outcomes)
            verdict = inc.get("verified")
            lines.append(
                f"incremental: {inc.get('delta_records', 0)} appended "
                f"records, {len(outcomes)} cached measures, "
                f"partition chain {inc.get('partitions', 0)} long"
                + (
                    ""
                    if verdict is None
                    else (
                        ", verified bit-identical"
                        if verdict
                        else ", VERIFICATION FAILED"
                    )
                )
            )
            if actions:
                lines.append(
                    "  actions: "
                    + ", ".join(
                        f"{action}={count}"
                        for action, count in sorted(actions.items())
                    )
                )
            for outcome in outcomes:
                detail = outcome.get("reason", "")
                regions = outcome.get("recomputed_regions", 0)
                if regions:
                    detail = (
                        f"{detail + '; ' if detail else ''}"
                        f"{regions} anchors re-evaluated"
                    )
                lines.append(
                    f"  {outcome.get('measure', '?')}: "
                    f"{outcome.get('classification', '?')} -> "
                    f"{outcome.get('action', '?')}"
                    f" ({outcome.get('rows', 0)} rows"
                    + (f"; {detail})" if detail else ")")
                )
        if self.workers:
            lines.append(f"workers: {len(self.workers)} processes")
            for worker, section in sorted(self.workers.items()):
                resources = section.get("resources", {})
                counters = section.get("counters", {})
                rss_mib = resources.get("rss_bytes", 0) / (1024 * 1024)
                lines.append(
                    f"  {worker}: "
                    f"cpu {resources.get('cpu_seconds', 0.0):.2f}s, "
                    f"rss {rss_mib:.1f} MiB, "
                    f"gc {resources.get('gc_collections', 0)}, "
                    f"tasks {counters.get('tasks', 0):g}"
                )
        if self.faults:
            plan = self.faults.get("plan", {})
            lines.append(
                "faults: chaos seed "
                f"{plan.get('seed', '?')}, "
                f"{len(plan.get('machine_crashes', []))} crashes, "
                f"p_fail={plan.get('task_failure_probability', 0.0):.2f}, "
                f"p_straggle={plan.get('straggler_probability', 0.0):.2f}, "
                f"p_lost={plan.get('lost_partition_probability', 0.0):.2f}"
            )
            for phase in ("map", "reduce"):
                stats = self.faults.get(phase)
                if not stats:
                    continue
                lines.append(
                    f"  {phase}: {stats.get('attempts', 0)} attempts for "
                    f"{stats.get('tasks', 0)} tasks, "
                    f"{stats.get('retries', 0)} retries, "
                    f"{stats.get('crash_kills', 0)} crash kills, "
                    f"{stats.get('speculative_launched', 0)} speculative "
                    f"({stats.get('speculative_wins', 0)} won), "
                    f"{stats.get('exhausted_tasks', 0)} exhausted"
                )
        env = ", ".join(
            f"{key}={value}"
            for key, value in self.environment.items()
            if value is not None
        )
        if env:
            lines.append(f"environment: {env}")
        return "\n".join(lines)
