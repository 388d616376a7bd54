"""Execution reports returned by the parallel and naive evaluators."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.local.measure_table import ResultSet
from repro.local.sortscan import LocalStats
from repro.mapreduce.counters import JobReport, PhaseBreakdown
from repro.obs.calibration import CalibrationReport
from repro.optimizer.optimizer import QueryPlan


@dataclass
class ColumnarStats:
    """Map-side columnar accounting for one parallel evaluation.

    ``batch_tasks``/``fallback_tasks`` count whole map tasks routed
    through the columnar fast path versus ones whose records could not
    be represented as an integer batch; ``vector_groups``/
    ``scalar_groups`` split the early-aggregation block groups between
    the reduceat-based combiner and its per-record scalar fallback.
    """

    batch_tasks: int = 0
    batch_records: int = 0
    fallback_tasks: int = 0
    fallback_records: int = 0
    vector_groups: int = 0
    scalar_groups: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ParallelResult:
    """Result and full execution trace of one parallel evaluation."""

    result: ResultSet
    plan: QueryPlan
    job: JobReport
    local_stats: LocalStats
    columnar: ColumnarStats | None = None
    #: Cost-model audit: Formula 2/4 predictions joined against this
    #: run's measured loads (attached by the parallel executor).
    calibration: CalibrationReport | None = None

    @property
    def response_time(self) -> float:
        """Simulated end-to-end response time, in seconds."""
        return self.job.response_time

    @property
    def breakdown(self) -> PhaseBreakdown:
        return self.job.breakdown

    def describe(self) -> str:
        return (
            f"plan: {self.plan.describe()}\n"
            f"job:  {self.job.summary()}\n"
            f"rows: {self.result.total_rows()} across "
            f"{len(self.result.tables)} measures"
        )


@dataclass
class MultiJobResult:
    """Result of a multi-job (naive) evaluation plan."""

    result: ResultSet
    jobs: list[JobReport] = field(default_factory=list)

    @property
    def response_time(self) -> float:
        """Jobs run back to back; the response time is their sum."""
        return sum(job.response_time for job in self.jobs)

    @property
    def total_shuffled_bytes(self) -> int:
        return sum(job.counters.shuffle_bytes for job in self.jobs)

    def describe(self) -> str:
        lines = [
            f"{len(self.jobs)} jobs, {self.response_time:.3f}s simulated total"
        ]
        lines.extend("  " + job.summary() for job in self.jobs)
        return "\n".join(lines)
