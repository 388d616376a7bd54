"""Job counters and per-phase cost breakdowns.

The engine counts *work* (records, bytes, sort passes) while executing
jobs for real; the timing model converts work into simulated seconds.
Keeping the two separate makes every experiment deterministic and lets
tests assert on work done rather than on wall-clock noise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass
class PhaseBreakdown:
    """Simulated seconds per evaluation phase (Figure 4(d) categories).

    ``map`` covers reading input splits and running the map function;
    ``shuffle`` is transferring map output to reducers; ``framework_sort``
    is the MapReduce sort grouping pairs by distribution key;
    ``group_sort`` is the local algorithm's re-sort inside each group;
    ``evaluate`` is the scan producing results.
    """

    map: float = 0.0
    shuffle: float = 0.0
    framework_sort: float = 0.0
    group_sort: float = 0.0
    evaluate: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.map
            + self.shuffle
            + self.framework_sort
            + self.group_sort
            + self.evaluate
        )

    def cumulative(self) -> dict[str, float]:
        """The paper's cumulative bars: Map-Only, MR, Sort, Sort+Eval."""
        map_only = self.map
        mr = map_only + self.shuffle + self.framework_sort
        sort = mr + self.group_sort
        return {
            "Map-Only": map_only,
            "MR": mr,
            "Sort": sort,
            "Sort+Eval": sort + self.evaluate,
        }

    def add(self, other: "PhaseBreakdown") -> None:
        """Accumulate *other* phase by phase.

        The phase list is derived with :func:`dataclasses.fields`, so a
        phase added to this class can never be silently dropped from
        aggregation.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class JobCounters:
    """Raw work counters collected while a job executes."""

    map_input_records: int = 0
    map_output_records: int = 0
    map_output_bytes: int = 0
    combine_input_records: int = 0
    combine_output_records: int = 0
    shuffle_bytes: int = 0
    reduce_input_records: int = 0
    reduce_output_records: int = 0
    spilled_records: int = 0
    sort_passes: int = 0
    map_tasks: int = 0
    reduce_tasks: int = 0
    remote_block_reads: int = 0
    task_retries: int = 0
    extra: Counter = field(default_factory=Counter)

    @property
    def replication_factor(self) -> float:
        """Map output amplification: duplicated data shows up here."""
        if self.map_input_records == 0:
            return 0.0
        return self.map_output_records / self.map_input_records

    def add(self, other: "JobCounters") -> None:
        """Accumulate *other* counter by counter.

        The counter list is derived with :func:`dataclasses.fields`
        (``Counter``-typed fields merge via ``update``), so a counter
        added to this class can never be silently dropped from
        aggregation.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counter):
                value.update(getattr(other, f.name))
            else:
                setattr(self, f.name, value + getattr(other, f.name))


@dataclass
class JobReport:
    """Everything the harness needs to know about one executed job."""

    name: str
    counters: JobCounters
    breakdown: PhaseBreakdown
    map_makespan: float
    reduce_makespan: float
    reducer_loads: list[int] = field(default_factory=list)
    reducer_times: list[float] = field(default_factory=list)
    map_trace: list = field(default_factory=list)
    reduce_trace: list = field(default_factory=list)
    #: Fault-plan + per-phase attempt accounting when the job ran under
    #: an installed :class:`~repro.faults.FaultPlan` (empty otherwise):
    #: ``{"plan": ..., "policy": ..., "map": ..., "reduce": ...}`` with
    #: the phase entries in
    #: :meth:`~repro.faults.PhaseFaultStats.to_dict` form.
    faults: dict = field(default_factory=dict)
    #: Host ``time.perf_counter`` stamps of the map phase's start and
    #: end and of the reduce phase's start: the wall boundaries the
    #: serving ledger tiles execution with.  Measurements, so they take
    #: no part in equality.
    wall_map_start: float = field(default=0.0, compare=False)
    wall_map_end: float = field(default=0.0, compare=False)
    wall_reduce_start: float = field(default=0.0, compare=False)

    @property
    def response_time(self) -> float:
        """Simulated end-to-end response time of the job."""
        return self.map_makespan + self.reduce_makespan

    @property
    def max_reducer_load(self) -> int:
        return max(self.reducer_loads, default=0)

    @property
    def load_imbalance(self) -> float:
        """Max over mean reducer load; 1.0 is perfectly balanced.

        Idle reducers **count toward the mean** (the paper's convention:
        an idle reducer is wasted parallelism, so a run that leaves
        reducers empty reads as imbalanced even if the busy ones are
        even).  Equivalent to ``imbalance(include_idle=True)``.
        """
        return self.imbalance(include_idle=True)

    def imbalance(self, include_idle: bool = True) -> float:
        """Max reducer load over the mean load.

        With ``include_idle=True`` (the default, and what
        :attr:`load_imbalance` reports) the mean runs over *all*
        reducers; with ``include_idle=False`` it runs over busy
        reducers only, measuring spread among the reducers that did
        work.  Returns 1.0 when every reducer is idle -- a vacuously
        balanced schedule under either convention.
        """
        busy = [load for load in self.reducer_loads if load]
        if not busy:
            return 1.0
        loads = self.reducer_loads if include_idle else busy
        mean = sum(loads) / len(loads)
        return self.max_reducer_load / mean

    def summary(self) -> str:
        counters = self.counters
        return (
            f"{self.name}: {self.response_time:.3f}s simulated "
            f"(map {self.map_makespan:.3f}s + reduce {self.reduce_makespan:.3f}s), "
            f"{counters.map_input_records} records in, "
            f"replication x{counters.replication_factor:.2f}, "
            f"max reducer load {self.max_reducer_load}"
        )
