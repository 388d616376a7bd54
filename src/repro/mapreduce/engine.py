"""The simulated cluster's accounting, and a plain pair engine.

The clock prices counted work and never looks at answers: Figure 4's
shapes come from counted work, and its seconds are calibrated, not
measured (:mod:`repro.mapreduce.timing`).  One execution counts the
work into a :class:`JobShape` -- per map task its records, remote
read, emitted pairs, combiner input and output and shipped bytes; per
reduce task its rows, bytes and per-group sort and scan sizes; the
job's output rows -- and the pure :func:`account` turns that shape
into a :class:`JobReport`: the deterministic simulated response time
with the paper's Figure 4(d) phase breakdown, counters, task traces
and fault accounting.

Two executions produce shapes.  The composite query runs once, through
the same route, split and bucket evaluation as the process backend
(:class:`~repro.parallel.executor.ParallelEvaluator`).
:class:`MapReduceJob` is the pair engine behind the naive
per-measure baseline (:mod:`repro.parallel.naive`) and the per-block
test oracle; its scatter/gather contract mirrors Hadoop's:

* ``mapper(record) -> iterable[(key, value)]`` -- may emit several pairs
  per record, which is what enables overlapped data redistribution;
* ``combiner(key, values) -> iterable[(key, value)]`` -- optional
  mapper-side pre-aggregation (the early-aggregation optimization);
* ``reducer(key, values, ctx) -> iterable[output]`` -- sees each group
  once, with pairs of equal key guaranteed to meet in the same task,
  and reports its internal sort/scan work through *ctx*.

:class:`BlockRows` is the columnar map output both backends route
into: block keys with per-block row indices, split by reducer at once.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro import kernels
from repro.faults.scheduler import PhaseFaultStats
from repro.mapreduce.cluster import SimulatedCluster, makespan
from repro.mapreduce.counters import JobCounters, JobReport, PhaseBreakdown
from repro.mapreduce.dfs import DistributedFile
from repro.mapreduce.sorter import sort_group_pairs, spill_stats
from repro.mapreduce.timing import TimingModel
from repro.mapreduce.trace import schedule
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracer import NULL_TRACER

logger = logging.getLogger(__name__)

#: Serialized size charged per key in a key/value pair.
KEY_BYTES = 16

#: Extra per-record key width when the framework sorts on a composite
#: (distribution + local) key, Section III-D's combined-sort variant.
COMBINED_SORT_KEY_OVERHEAD = 1.1


class TaskContext:
    """Collects a reduce function's internal work for the clock."""

    def __init__(self):
        self.sort_records: list[int] = []
        self.sort_bytes: list[int] = []
        self.eval_records: list[int] = []

    def charge_sort(self, records: int, nbytes: int) -> None:
        """Charge an in-group sort (the local algorithm's re-sort)."""
        self.sort_records.append(records)
        self.sort_bytes.append(nbytes)

    def charge_eval(self, records: int) -> None:
        """Charge scan/evaluation CPU for *records* processed."""
        self.eval_records.append(records)


class MapTask(NamedTuple):
    """What one map task counted."""

    records: int
    remote: bool
    #: Pairs the map function emitted (map CPU is paid per pair).
    emitted: int
    #: Pairs shipped to reducers, and their bytes.
    shipped: int
    shipped_bytes: int
    #: Pairs that entered the combiner and their bytes (0 when none ran).
    combine_inputs: int = 0
    combine_bytes: int = 0


class ReduceTask(NamedTuple):
    """What one reduce task counted: its input, then each group
    re-sort ``(records, bytes)`` and each scan's records, in the order
    the reducer ran them."""

    rows: int
    nbytes: int
    sort_records: np.ndarray
    sort_bytes: np.ndarray
    eval_records: np.ndarray


@dataclass
class JobShape:
    """Everything one execution of a job counted; :func:`account`
    prices it.

    Attributes:
        record_bytes: Serialized size of one map input record.
        combined_sort: Section III-D's combined framework/local sort:
            group re-sorts become free, the framework sort pays a
            slightly wider key.
        maps: One :class:`MapTask` per DFS split, in split order.
        reduces: One :class:`ReduceTask` per reducer, in reducer order.
        output_records: Records the job output.
        wall: ``time.perf_counter`` stamps of the map phase's start and
            end and the reduce phase's start and end.
    """

    record_bytes: int
    combined_sort: bool = False
    maps: list = field(default_factory=list)
    reduces: list = field(default_factory=list)
    output_records: int = 0
    wall: tuple = (0.0, 0.0, 0.0, 0.0)

    def add_reducer(self, rows, nbytes, sort_records, sort_bytes,
                        eval_records) -> None:
        """Append one reducer's counts, charge sizes as arrays."""
        self.reduces.append(ReduceTask(
            rows,
            nbytes,
            np.asarray(sort_records, dtype=np.int64),
            np.asarray(sort_bytes, dtype=np.int64),
            np.asarray(eval_records, dtype=np.int64),
        ))


@dataclass
class JobResult:
    """Outputs plus the execution report of one job run."""

    outputs: list
    report: JobReport


@dataclass
class BlockRows:
    """Records routed into blocks, as arrays: a columnar map output.

    Attributes:
        keys: The block keys, plain-int tuples (a partitioner hashing
            ``repr`` would misplace NumPy scalars), ascending.
        key_matrix: The same keys as an int64 ``(blocks, width)`` array.
        counts: Rows per block.
        rows: Row indices into the routed batch, block-major; a block's
            rows ascend.
    """

    keys: list
    key_matrix: np.ndarray
    counts: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def split(
        self, partitioner: Callable, num_reducers: int
    ) -> list[tuple[int, "BlockRows"]]:
        """These rows split by reducer: each reducer that gets a block
        gets ``(reducer, its blocks)``, ascending by reducer, blocks
        still in key order.  :func:`default_partitioner` runs on the key
        matrix at once (:func:`hash_matrix`); any other *partitioner* is
        called once per block on its plain-int key."""
        if not len(self.keys):
            return []
        if partitioner is default_partitioner:
            parts = hash_matrix(self.key_matrix) % num_reducers
        else:
            parts = np.fromiter(
                (partitioner(key, num_reducers) for key in self.keys),
                dtype=np.int64,
                count=len(self.keys),
            )
        order = np.argsort(parts, kind="stable")
        counts = self.counts[order]
        rows = self.rows[kernels.take_blocks(self.counts, order)]
        row_edges = np.append(0, np.cumsum(counts)).tolist()
        sorted_parts = parts[order]
        edges = (
            [0]
            + (np.flatnonzero(np.diff(sorted_parts)) + 1).tolist()
            + [len(order)]
        )
        picks = order.tolist()
        return [
            (
                int(sorted_parts[low]),
                BlockRows(
                    [self.keys[i] for i in picks[low:high]],
                    self.key_matrix[order[low:high]],
                    counts[low:high],
                    rows[row_edges[low]:row_edges[high]],
                ),
            )
            for low, high in zip(edges, edges[1:])
        ]


def stable_hash(key) -> int:
    """A process-independent hash (``hash()`` is randomized for strings)."""
    return zlib.crc32(repr(key).encode())


def _crc_table() -> np.ndarray:
    """zlib's CRC-32 step of every byte value (reflected, ``0xEDB88320``)."""
    table = np.arange(256, dtype=np.uint64)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ 0xEDB88320, table >> 1)
    return table


_CRC_TABLE = _crc_table()

#: ``_CRC_TABLE[x ^ ord("0")]``: a step on ``digit`` rather than its
#: ASCII byte.
_DIGIT_TABLE = _CRC_TABLE[np.arange(256) ^ ord("0")]

#: ``10**0 .. 10**19``: the decimal digit weights of an int64.
_POWERS = 10 ** np.arange(20, dtype=np.uint64)


def _crc_bytes(crc: np.ndarray, data: bytes) -> np.ndarray:
    """*crc* after feeding every row the same bytes."""
    for byte in data:
        crc = _CRC_TABLE[(crc & 0xFF) ^ byte] ^ (crc >> 8)
    return crc


def hash_matrix(key_matrix: np.ndarray) -> np.ndarray:
    """:func:`stable_hash` of every row of an int64 key matrix, as the
    plain-int tuple the row stands for.

    One table-driven CRC-32 step per byte position of ``repr(row)``
    (``(``, each value's decimal digits, ``, `` between values, ``,``
    after a lone value, ``)``) runs over all rows at once; a row whose
    value has fewer digits skips the positions it lacks.  Until the
    first column whose value varies, every row shares one state.  Rows
    holding a negative value are hashed one at a time.
    """
    keys = np.asarray(key_matrix, dtype=np.int64)
    count, width = keys.shape
    if not count:
        return np.zeros(0, dtype=np.int64)
    negative = (keys < 0).any(axis=1)
    crc = np.full(1, 0xFFFFFFFF, dtype=np.uint64)
    pending = b"("  # bytes every row feeds next
    for column in range(width):
        if column:
            pending += b", "
        values = np.maximum(keys[:, column], 0).astype(np.uint64)
        low, high = int(values.min()), int(values.max())
        if low == high:
            pending += str(low).encode()
            continue
        crc, pending = _crc_bytes(crc, pending), b""
        digits = np.maximum(1, np.searchsorted(_POWERS, values, "right"))
        widest = len(str(high))
        # Left-aligned: digit p of every row sits at the same weight.
        aligned = values * _POWERS[widest - digits]
        ragged = len(str(low)) < widest
        for position in range(widest):
            digit = aligned // _POWERS[widest - 1 - position] % 10
            step = _DIGIT_TABLE[(crc ^ digit) & 0xFF] ^ (crc >> 8)
            crc = np.where(digits > position, step, crc) if ragged else step
    pending += b",)" if width == 1 else b")"
    crc = _crc_bytes(crc, pending) ^ 0xFFFFFFFF
    hashes = np.broadcast_to(crc.astype(np.int64), (count,)).copy()
    if negative.any():
        rows = np.flatnonzero(negative)
        hashes[rows] = [stable_hash(tuple(row)) for row in keys[rows].tolist()]
    return hashes


def _account_fault_stats(counters: JobCounters, stats: PhaseFaultStats) -> None:
    """Fold one phase's attempt accounting into the job counters."""
    counters.task_retries += stats.retries
    counters.extra["attempts"] += stats.attempts
    counters.extra["injected_failures"] += stats.failures
    counters.extra["crash_kills"] += stats.crash_kills
    counters.extra["stragglers"] += stats.stragglers
    counters.extra["speculated"] += stats.speculative_launched
    counters.extra["speculative_wins"] += stats.speculative_wins
    counters.extra["exhausted_tasks"] += stats.exhausted_tasks


def _add_attempt_spans(tracer, track: str, spans, *, sim_offset: float,
                       name: str) -> None:
    """Replay fault-aware attempt spans with their attempt/outcome tags."""
    for span in spans:
        tracer.record_span(
            f"{name} {span.task}.{span.attempt}",
            sim_offset + span.start,
            sim_offset + span.end,
            track=track,
            slot=span.slot,
            task=span.task,
            attempt=span.attempt,
            outcome=span.outcome,
        )


def default_partitioner(key, num_reducers: int) -> int:
    """Hash partitioning: the scheme the cost model's randomness assumes."""
    return stable_hash(key) % num_reducers


def _sort_seconds(timing: TimingModel, records, nbytes) -> np.ndarray:
    """``timing.sort`` of each ``(records, bytes)`` pair, called once per
    distinct pair: it takes ``math.log2``, whose bits NumPy's ``log2``
    need not match."""
    order = np.lexsort((nbytes, records))
    pairs = np.column_stack((records, nbytes))[order]
    starts = kernels.row_boundaries(pairs)
    seconds = np.array(
        [timing.sort(count, size) for count, size in pairs[starts].tolist()]
    )
    priced = np.zeros(len(order))
    priced[order] = seconds[np.cumsum(starts) - 1]
    return priced


def _fold(seconds: np.ndarray) -> float:
    """``0.0 + s0 + s1 + ...`` left to right, as a running ``+=`` adds
    (``np.cumsum`` is sequential; ``np.sum`` is pairwise, and ``sum``
    compensates since Python 3.12)."""
    return float(np.cumsum(seconds)[-1]) if len(seconds) else 0.0


def _reduce_stages(shape: JobShape, cluster: SimulatedCluster,
                   counters: JobCounters) -> list[list[float]]:
    """Each reducer's shuffle, framework-sort, group-sort and evaluate
    seconds, one list per stage, before retries and stragglers."""
    timing = cluster.timing
    reduces = shape.reduces
    sorts = np.split(
        _sort_seconds(
            timing,
            np.concatenate([task.sort_records for task in reduces] or [[]]),
            np.concatenate([task.sort_bytes for task in reduces] or [[]]),
        ),
        np.cumsum([len(task.sort_records) for task in reduces])[:-1],
    )
    stages: list[list[float]] = [[], [], [], []]
    for task, group_sorts in zip(reduces, sorts):
        size, in_bytes = task.rows, task.nbytes
        counters.reduce_tasks += 1
        counters.reduce_input_records += size
        sort_stats = spill_stats(
            size,
            record_bytes=max(1, in_bytes // max(1, size)),
            memory_bytes=cluster.config.memory_per_task,
        )
        counters.spilled_records += sort_stats.spilled_records
        counters.sort_passes += sort_stats.passes
        fsort_bytes = in_bytes
        if shape.combined_sort:
            fsort_bytes = int(in_bytes * COMBINED_SORT_KEY_OVERHEAD)
        stages[0].append(timing.network_transfer(in_bytes))
        stages[1].append(timing.sort(size, fsort_bytes))
        # Under the combined sort the local re-sort is subsumed by the
        # composite framework key.
        stages[2].append(0.0 if shape.combined_sort else _fold(group_sorts))
        stages[3].append(_fold(timing.eval_cpu(task.eval_records)))
    return stages


def _tracer_walls(tracer, wall: tuple) -> tuple:
    """*wall*'s ``perf_counter`` stamps on *tracer*'s clock."""
    if not tracer.enabled:
        return wall
    offset = tracer.now() - time.perf_counter()
    return tuple(stamp + offset for stamp in wall)


def account(
    shape: JobShape,
    cluster: SimulatedCluster,
    *,
    name: str = "job",
    sim_origin: float = 0.0,
    tracer=None,
    telemetry=None,
) -> JobReport:
    """Price one execution's counted work on *cluster*'s virtual clock.

    Pure in *shape* and the cluster's configuration, static failures
    and fault plan: stragglers and faults are seeded by job *name* and
    cluster, never by answers.  *tracer* (a :class:`repro.obs.Tracer`,
    disabled by default) receives the span tree of the run: a ``job``
    span holding the ``map`` phase, per-slot task placements, and the
    ``reduce`` phase with its ``shuffle``/``sort``/``group-sort``/
    ``evaluate`` children on the simulated clock; the ``job``, ``map``
    and ``reduce`` spans span the wall intervals *shape* stamped.
    *sim_origin* offsets every simulated timestamp, letting multi-job
    evaluations lay jobs end to end on one timeline.  *telemetry* (a
    :class:`repro.obs.telemetry.TelemetryRegistry`, disabled by
    default) receives each task's progress and row/byte counts.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    timing = cluster.timing
    counters = JobCounters()
    chaos = cluster.fault_plan is not None
    num_reducers = len(shape.reduces)
    map_start, map_end, reduce_start, reduce_end = _tracer_walls(
        tracer, shape.wall
    )

    with tracer.span("job", wall_start=map_start, job=name) as job_span:
        with tracer.span(
            "map", wall_start=map_start, wall_end=map_end
        ) as map_span:
            map_durations = []
            telemetry.phase("map", 0, len(shape.maps))
            for task in shape.maps:
                counters.map_input_records += task.records
                counters.remote_block_reads += task.remote
                combine_seconds = 0.0
                if task.combine_inputs:
                    counters.combine_input_records += task.combine_inputs
                    # Mapper-side grouping costs a sort (or hash) of the
                    # map output -- the overhead Figure 4(e) shows
                    # dominating at fine granularities.
                    combine_seconds = timing.sort(
                        task.combine_inputs, task.combine_bytes
                    )
                    counters.combine_output_records += task.shipped
                counters.map_output_records += task.shipped
                counters.map_output_bytes += task.shipped_bytes
                # Emission CPU is paid per pair the map function
                # produced; the combiner may shrink them afterwards but
                # the work happened.
                map_durations.append(
                    timing.disk_read(
                        task.records * shape.record_bytes, remote=task.remote
                    )
                    + timing.map_cpu(task.records + task.emitted)
                    + combine_seconds
                )
                telemetry.phase("map", len(map_durations), len(shape.maps))
                telemetry.mark("map.rows", task.records)
                telemetry.mark("shuffle.bytes", task.shipped_bytes)
            counters.map_tasks = len(map_durations)
            map_stats = None
            if chaos:
                # Fault-aware scheduling: the plan injects crashes,
                # failures and stragglers per attempt; reruns charge
                # their actual cost.
                map_makespan, map_trace, map_stats = cluster.schedule_phase(
                    "map", map_durations, origin=sim_origin
                )
                _account_fault_stats(counters, map_stats)
                map_stragglers = map_stats.stragglers
            else:
                map_factors, map_stragglers, map_speculated = (
                    cluster.straggler_factors(
                        len(map_durations), f"{name}:map"
                    )
                )
                map_durations = [
                    duration * factor
                    for duration, factor in zip(map_durations, map_factors)
                ]
                counters.extra["stragglers"] += map_stragglers
                counters.extra["speculated"] += map_speculated
                map_makespan, map_trace = schedule(
                    map_durations, cluster.map_slots
                )
            map_span.set_sim(sim_origin, sim_origin + map_makespan)
            map_span.set(
                tasks=len(map_durations),
                input_records=counters.map_input_records,
                output_records=counters.map_output_records,
                stragglers=map_stragglers,
            )
        if chaos:
            _add_attempt_spans(
                tracer, "map", map_trace, sim_offset=sim_origin, name="map"
            )
        else:
            tracer.add_task_spans(
                "map", map_trace, sim_offset=sim_origin, name="map"
            )

        with tracer.span(
            "reduce", wall_start=reduce_start, wall_end=reduce_end
        ) as reduce_span:
            stages = _reduce_stages(shape, cluster, counters)
            telemetry.phase("reduce", 0, num_reducers)
            for index, task in enumerate(shape.reduces):
                telemetry.phase("reduce", index + 1, num_reducers)
                telemetry.mark("reduce.rows", task.rows)
                # Under chaos, dispatch-to-a-dead-machine is priced by
                # real attempt accounting, not the flat 2x.
                if not chaos and cluster.reducer_retry_needed(index):
                    counters.task_retries += 1
                    for stage in stages:
                        stage[index] *= 2.0
            counters.shuffle_bytes = counters.map_output_bytes
            counters.reduce_output_records = shape.output_records

            reduce_stats = None
            if chaos:
                # A lost shuffle partition re-fetches that reducer's map
                # output once: its shuffle cost is paid twice.
                for index in range(num_reducers):
                    if cluster.fault_plan.partition_lost(index):
                        stages[0][index] *= 2.0
                        counters.extra["shuffle_refetches"] += 1
                reduce_stragglers = 0
            else:
                reduce_factors, reduce_stragglers, reduce_speculated = (
                    cluster.straggler_factors(num_reducers, f"{name}:reduce")
                )
                counters.extra["stragglers"] += reduce_stragglers
                counters.extra["speculated"] += reduce_speculated
                for stage in stages:
                    for index, factor in enumerate(reduce_factors):
                        stage[index] *= factor

            reduce_base = sim_origin + map_makespan
            slots = cluster.reduce_slots
            if chaos:
                # Machines crashed during the map phase contribute no
                # reduce slots; the stage-shape makespans below use what
                # is actually alive when the reduce starts.
                slots = max(
                    1,
                    len(cluster.live_machines_at(reduce_base))
                    * cluster.config.reduce_slots_per_machine,
                )
            # Each reducer's stage prefixes, folded left to right.
            prefixes = np.cumsum(stages, axis=0).tolist()
            cumulative = [0.0] + [
                makespan(prefix, slots) for prefix in prefixes
            ]
            reducer_times = prefixes[3]
            if chaos:
                reduce_makespan, reduce_trace, reduce_stats = (
                    cluster.schedule_phase(
                        "reduce", reducer_times, origin=reduce_base
                    )
                )
                _account_fault_stats(counters, reduce_stats)
                reduce_stragglers = reduce_stats.stragglers
                # Reruns stretch the phase; scale the per-stage breakdown
                # proportionally so it still sums to the fault-aware
                # makespan.
                if cumulative[-1] > 0:
                    factor = reduce_makespan / cumulative[-1]
                    cumulative = [value * factor for value in cumulative]
            else:
                reduce_makespan = cumulative[4]
                _finish, reduce_trace = schedule(reducer_times, slots)
            breakdown = PhaseBreakdown(
                map=map_makespan,
                shuffle=cumulative[1] - cumulative[0],
                framework_sort=cumulative[2] - cumulative[1],
                group_sort=cumulative[3] - cumulative[2],
                evaluate=cumulative[4] - cumulative[3],
            )

            # The reduce phases are derived makespans, not wall-clock
            # intervals: record them on the simulated timeline only.
            for phase_name, depth in (
                ("shuffle", 1),
                ("sort", 2),
                ("group-sort", 3),
                ("evaluate", 4),
            ):
                tracer.record_span(
                    phase_name,
                    reduce_base + cumulative[depth - 1],
                    reduce_base + cumulative[depth],
                    tasks=num_reducers,
                )
            reduce_span.set_sim(reduce_base, reduce_base + reduce_makespan)
            reduce_span.set(
                tasks=num_reducers,
                input_records=counters.reduce_input_records,
                output_records=counters.reduce_output_records,
                stragglers=reduce_stragglers,
            )
        if chaos:
            _add_attempt_spans(
                tracer, "reduce", reduce_trace, sim_offset=reduce_base,
                name="reduce",
            )
        else:
            tracer.add_task_spans(
                "reduce", reduce_trace, sim_offset=reduce_base,
                name="reduce",
            )

        faults: dict = {}
        if chaos:
            faults = {
                "plan": cluster.fault_plan.to_dict(),
                "policy": dataclasses.asdict(cluster.retry_policy),
                "map": map_stats.to_dict(),
                "reduce": reduce_stats.to_dict(),
            }
        report = JobReport(
            name=name,
            counters=counters,
            breakdown=breakdown,
            map_makespan=map_makespan,
            reduce_makespan=reduce_makespan,
            reducer_loads=[task.rows for task in shape.reduces],
            reducer_times=reducer_times,
            map_trace=map_trace,
            reduce_trace=reduce_trace,
            faults=faults,
            wall_map_start=shape.wall[0],
            wall_map_end=shape.wall[1],
            wall_reduce_start=shape.wall[2],
        )
        job_span.set_sim(sim_origin, sim_origin + report.response_time)
        job_span.set(
            max_reducer_load=report.max_reducer_load,
            load_imbalance=report.load_imbalance,
        )
        if chaos and (
            counters.task_retries
            or counters.extra["speculated"]
            or counters.extra["crash_kills"]
        ):
            tracer.record_span(
                "fault-recovery",
                sim_origin,
                sim_origin + report.response_time,
                retries=counters.task_retries,
                crash_kills=counters.extra["crash_kills"],
                injected_failures=counters.extra["injected_failures"],
                speculative=counters.extra["speculated"],
                exhausted=counters.extra["exhausted_tasks"],
            )
    logger.debug("job %s finished: %s", name, report.summary())
    return report


@dataclass
class MapReduceJob:
    """A configured pair job; call :meth:`run` against a cluster and a
    file.

    Args:
        mapper: Map function (see module docstring).
        reducer: Per-group reduce function.
        num_reducers: Number of reduce tasks (the paper's ``m``).
        combiner: Optional mapper-side pre-aggregation.
        partitioner: ``(key, m) -> reducer index``; defaults to hashing.
        record_bytes: Serialized size of one map *input* record.
        value_bytes: Size function for map output values; defaults to
            ``record_bytes`` (values are copies of input records in the
            paper's scheme).
        combined_sort: Model Section III-D's combined framework/local
            sort (see :class:`JobShape`).
        name: Label used in reports.
    """

    mapper: Callable
    reducer: Callable
    num_reducers: int
    combiner: Optional[Callable] = None
    partitioner: Callable = default_partitioner
    record_bytes: int = 64
    value_bytes: Optional[Callable] = None
    combined_sort: bool = False
    name: str = "job"

    def __post_init__(self):
        if self.num_reducers <= 0:
            raise ValueError("num_reducers must be positive")

    def execute(
        self,
        input_file: DistributedFile,
        cluster: SimulatedCluster,
        sim_origin: float = 0.0,
    ) -> tuple[list, JobShape]:
        """Run the job; returns its outputs and the work it counted.

        Each DFS split is read from a replica alive at *sim_origin*
        (:class:`~repro.mapreduce.dfs.DataUnavailableError` when none
        is) and mapped, combined and partitioned as one map task; each
        reducer groups what it received by key, in arrival order.
        """
        value_size = self.value_bytes or (lambda _value: self.record_bytes)
        failed = (
            cluster.machines_dead_at(sim_origin)
            if cluster.fault_plan is not None
            else cluster.failed_machines
        )
        shape = JobShape(self.record_bytes, self.combined_sort)
        shares: list[list] = [[] for _ in range(self.num_reducers)]
        map_start = time.perf_counter()
        for block in input_file.blocks:
            records, served_by = input_file.read_block(block, failed)
            pairs = [pair for record in records for pair in self.mapper(record)]
            emitted = len(pairs)
            combine_bytes = 0
            if self.combiner is not None and pairs:
                combine_bytes = sum(KEY_BYTES + value_size(v) for _k, v in pairs)
                pairs = [
                    pair
                    for key, values in sort_group_pairs(pairs)
                    for pair in self.combiner(key, values)
                ]
            shipped_bytes = 0
            for pair in pairs:
                shares[self.partitioner(pair[0], self.num_reducers)].append(
                    pair
                )
                shipped_bytes += KEY_BYTES + value_size(pair[1])
            shape.maps.append(MapTask(
                len(records),
                served_by != block.replicas[0],
                emitted,
                len(pairs),
                shipped_bytes,
                emitted if combine_bytes else 0,
                combine_bytes,
            ))
        map_end = reduce_start = time.perf_counter()
        outputs: list = []
        for share in shares:
            context = TaskContext()
            for key, values in sort_group_pairs(share):
                produced = self.reducer(key, values, context)
                if produced:
                    outputs.extend(produced)
            shape.add_reducer(
                len(share),
                sum(KEY_BYTES + value_size(v) for _k, v in share),
                context.sort_records,
                context.sort_bytes,
                context.eval_records,
            )
        shape.output_records = len(outputs)
        shape.wall = (map_start, map_end, reduce_start, time.perf_counter())
        return outputs, shape

    def run(
        self,
        input_file: DistributedFile,
        cluster: SimulatedCluster,
        tracer=None,
        sim_origin: float = 0.0,
        telemetry=None,
    ) -> JobResult:
        """Execute the job and :func:`account` for it (see
        :meth:`execute` and :func:`account` for the arguments)."""
        outputs, shape = self.execute(input_file, cluster, sim_origin)
        report = account(
            shape, cluster, name=self.name, sim_origin=sim_origin,
            tracer=tracer, telemetry=telemetry,
        )
        return JobResult(outputs=outputs, report=report)
