"""The MapReduce job engine.

Executes jobs for real -- mappers emit key/value pairs, pairs shuffle to
reducers by partitioned key, reducers group and reduce -- while charging
every byte and record to the simulated cluster's timing model.  One call
to :meth:`MapReduceJob.run` therefore yields both the exact job output
and a deterministic simulated response time with the paper's Figure 4(d)
phase breakdown.

The scatter/gather contract mirrors Hadoop's:

* ``mapper(record) -> iterable[(key, value)]`` -- may emit several pairs
  per record, which is what enables overlapped data redistribution;
* ``combiner(key, values) -> iterable[(key, value)]`` -- optional
  mapper-side pre-aggregation (the early-aggregation optimization);
* ``reducer(key, values, ctx) -> iterable[output]`` -- sees each group
  once, with pairs of equal key guaranteed to meet in the same task, and
  charges its internal sort/scan work through *ctx*;
* ``reduce_task(bucket, ctx) -> iterable[output]`` -- the whole-task
  alternative to ``reducer``: sees all of a reduce task's input at once
  as a :class:`ShuffleBucket`, so groups can share one sort and one
  scan (Section III-D's composite key).

A batched map task (``map_batch``) may ship pairs or, for records
routed as arrays, one columnar output: :class:`BlockRows`, its block
keys with per-block row indices into the task's int matrix.  The engine
partitions it once per block, never per replica, and charges every row
as one ``(key, record)`` pair, so the simulated clock cannot tell the
two apart.  A reducer's :class:`ShuffleBucket` iterates as the
key-sorted ``(key, values)`` groups of everything it received, and
when every entry is columnar also offers the whole bucket as arrays
(:meth:`ShuffleBucket.columnar`).
"""

from __future__ import annotations

import dataclasses
import logging
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    """Lets reduce functions charge their internal work to the clock."""

    def __init__(self, timing: TimingModel):
        self._timing = timing
        self.group_sort_seconds = 0.0
        self.eval_seconds = 0.0

    def charge_sort(self, records: int, nbytes: int) -> None:
        """Charge an in-group sort (the local algorithm's re-sort)."""
        self.group_sort_seconds += self._timing.sort(records, nbytes)

    def charge_eval(self, records: int) -> None:
        """Charge scan/evaluation CPU for *records* processed."""
        self.eval_seconds += self._timing.eval_cpu(records)


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
        rows: Row indices into *matrix* and *records*, block-major.
        matrix: The map task's records as an int64 matrix.
        records: The map task's records; materialised groups hold these.
    """

    keys: list
    key_matrix: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    matrix: np.ndarray
    records: Sequence

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
                    self.matrix,
                    self.records,
                ),
            )
            for low, high in zip(edges, edges[1:])
        ]

    def pairs(self) -> list[tuple]:
        """The ``(key, record)`` pairs these rows stand for."""
        records = self.records
        row_list = self.rows.tolist()
        pairs = []
        offset = 0
        for key, count in zip(self.keys, self.counts.tolist()):
            pairs.extend(
                (key, records[row]) for row in row_list[offset:offset + count]
            )
            offset += count
        return pairs


@dataclass
class BucketColumns:
    """A columnar bucket grouped by block, as one reducer sees it.

    Attributes:
        keys: The distinct block keys, plain-int tuples, ascending.
        counts: Rows per block.
        matrix: The blocks' rows, block-major; a block's rows keep
            their arrival order (map task, then row), as the values of
            a :func:`~repro.mapreduce.sorter.sort_group_pairs` group do.
    """

    keys: list
    counts: np.ndarray
    matrix: np.ndarray


class ShuffleBucket:
    """One reduce task's input: what each map task shipped it, in order.

    Each entry is one map task's share: a list of ``(key, value)``
    pairs or a :class:`BlockRows`.  Iterating yields the
    :func:`~repro.mapreduce.sorter.sort_group_pairs` groups of every
    pair the entries stand for, built on first use; iterate as often as
    needed.
    """

    def __init__(self):
        self.entries: list = []
        self._groups: Optional[list] = None

    def __len__(self) -> int:
        return sum(len(entry) for entry in self.entries)

    def __iter__(self):
        if self._groups is None:
            pairs: list = []
            for entry in self.entries:
                pairs.extend(
                    entry.pairs() if isinstance(entry, BlockRows) else entry
                )
            self._groups = sort_group_pairs(pairs)
        return iter(self._groups)

    def columnar(self) -> Optional[BucketColumns]:
        """The bucket as arrays, or ``None`` unless it holds only
        :class:`BlockRows`.

        One stable lexsort of the entries' block keys merges equal
        keys in arrival order, exactly the order the groups hold.
        """
        entries = self.entries
        if not entries or not all(
            isinstance(entry, BlockRows) for entry in entries
        ):
            return None
        if len(entries) == 1:
            (only,) = entries
            return BucketColumns(
                only.keys, only.counts, only.matrix[only.rows]
            )
        keys = [key for entry in entries for key in entry.keys]
        key_matrix = np.concatenate([entry.key_matrix for entry in entries])
        counts = np.concatenate([entry.counts for entry in entries])
        matrix = np.concatenate(
            [entry.matrix[entry.rows] for entry in entries]
        )
        order = np.lexsort(key_matrix.T[::-1])
        starts = np.flatnonzero(kernels.row_boundaries(key_matrix[order]))
        return BucketColumns(
            [keys[i] for i in order[starts].tolist()],
            np.add.reduceat(counts[order], starts),
            matrix[kernels.take_blocks(counts, order)],
        )


@dataclass
class MapBatchOutput:
    """What a batched map-side fast path produced for one map task.

    The engine charges the simulated clock from these numbers exactly as
    it would have for the scalar path, so a batched implementation that
    reports the scalar-equivalent pair counts yields bit-identical
    counters, timings and results -- only the wall-clock cost of
    producing them changes.

    Attributes:
        pairs: The final key/value pairs to partition (post-combine when
            *combined* is set).
        blocks: Rows routed as arrays instead of pairs; each counts as
            one ``(key, record)`` pair charged ``record_bytes``.
        emitted_pairs: How many pairs the scalar mapper would have
            emitted before combining (drives map CPU accounting).
        combine_inputs: Pairs that entered the combine stage (0 when no
            combiner ran).
        combine_bytes: Serialized size of the combine input, charged as
            the mapper-side sort.
        combined: Whether the pairs are combiner output.
    """

    pairs: list
    emitted_pairs: int
    combine_inputs: int = 0
    combine_bytes: int = 0
    combined: bool = False
    blocks: Optional[BlockRows] = None


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


@dataclass
class MapReduceJob:
    """A configured job; call :meth:`run` against a cluster and a file.

    Args:
        mapper: Map function (see module docstring).
        reducer: Per-group reduce function, or ``None`` when
            *reduce_task* reduces whole tasks instead.
        num_reducers: Number of reduce tasks (the paper's ``m``).
        combiner: Optional mapper-side pre-aggregation.
        partitioner: ``(key, m) -> reducer index``; defaults to hashing.
        map_batch: Optional batched fast path for whole map tasks:
            ``(records) -> MapBatchOutput | None``.  When it returns an
            output, the per-record ``mapper`` (and ``combiner``) are
            bypassed for that task; returning ``None`` falls back to the
            scalar path, which is the per-task escape hatch for data the
            batched implementation cannot represent.
        reduce_task: Whole-task reduce function, the reduce-side mirror
            of *map_batch*: called once per reduce task with that task's
            :class:`ShuffleBucket` and the :class:`TaskContext`.
            Exactly one of *reducer* and *reduce_task* must be given.
        record_bytes: Serialized size of one map *input* record.
        value_bytes: Size function for map output values; defaults to
            ``record_bytes`` (values are copies of input records in the
            paper's scheme).
        combined_sort: Model Section III-D's combined framework/local
            sort: group re-sorts become free, the framework sort pays a
            slightly wider key.
        output_rows: How many output records the job's output list
            stands for; ``len`` unless the reduce side emits batches.
        name: Label used in reports.
    """

    mapper: Callable
    reducer: Optional[Callable]
    num_reducers: int
    combiner: Optional[Callable] = None
    partitioner: Callable = default_partitioner
    map_batch: Optional[Callable] = None
    reduce_task: Optional[Callable] = None
    record_bytes: int = 64
    value_bytes: Optional[Callable] = None
    combined_sort: bool = False
    output_rows: Callable[[list], int] = len
    name: str = "job"

    def __post_init__(self):
        if self.num_reducers <= 0:
            raise ValueError("num_reducers must be positive")
        if (self.reducer is None) == (self.reduce_task is None):
            raise ValueError(
                "give exactly one of reducer (per group) and reduce_task "
                "(per task)"
            )

    # -- map side ----------------------------------------------------------------

    def _run_map_task(
        self,
        records: Sequence,
        remote: bool,
        timing: TimingModel,
        counters: JobCounters,
        buckets: list[ShuffleBucket],
    ) -> float:
        value_size = self.value_bytes or (lambda _value: self.record_bytes)
        batch_output = (
            self.map_batch(records) if self.map_batch is not None else None
        )
        counters.map_input_records += len(records)
        blocks = None
        if batch_output is not None:
            # Batched fast path: the implementation reports the
            # scalar-equivalent pair counts, so the charges below mirror
            # the scalar branch exactly.
            pairs = batch_output.pairs
            blocks = batch_output.blocks
            emitted_pairs = batch_output.emitted_pairs
            combine_seconds = 0.0
            if batch_output.combined and batch_output.combine_inputs:
                counters.combine_input_records += batch_output.combine_inputs
                combine_seconds = timing.sort(
                    batch_output.combine_inputs, batch_output.combine_bytes
                )
                counters.combine_output_records += len(pairs)
        else:
            pairs = []
            for record in records:
                pairs.extend(self.mapper(record))
            emitted_pairs = len(pairs)

            combine_seconds = 0.0
            if self.combiner is not None and pairs:
                counters.combine_input_records += len(pairs)
                pair_bytes = sum(
                    KEY_BYTES + value_size(v) for _k, v in pairs
                )
                # Mapper-side grouping costs a sort (or hash) of the map
                # output -- the overhead Figure 4(e) shows dominating at
                # fine granularities.
                combine_seconds = timing.sort(len(pairs), pair_bytes)
                combined = []
                for key, values in sort_group_pairs(pairs):
                    combined.extend(self.combiner(key, values))
                pairs = combined
                counters.combine_output_records += len(pairs)

        out_bytes = 0
        shares: dict[int, list] = {}
        for key, value in pairs:
            index = self.partitioner(key, self.num_reducers)
            share = shares.get(index)
            if share is None:
                share = shares[index] = []
            share.append((key, value))
            out_bytes += KEY_BYTES + value_size(value)
        for index, share in shares.items():
            buckets[index].entries.append(share)
        shipped = len(pairs)
        if blocks is not None and len(blocks):
            for index, share in blocks.split(
                self.partitioner, self.num_reducers
            ):
                buckets[index].entries.append(share)
            shipped += len(blocks)
            out_bytes += len(blocks) * (KEY_BYTES + self.record_bytes)
        counters.map_output_records += shipped
        counters.map_output_bytes += out_bytes

        read_bytes = len(records) * self.record_bytes
        # Emission CPU is paid per pair the map function produced; the
        # combiner may shrink `pairs` afterwards but the work happened.
        return (
            timing.disk_read(read_bytes, remote=remote)
            + timing.map_cpu(len(records) + emitted_pairs)
            + combine_seconds
        )

    # -- reduce side --------------------------------------------------------------

    def _run_reduce_task(
        self,
        bucket: ShuffleBucket,
        cluster: SimulatedCluster,
        counters: JobCounters,
        outputs: list,
    ) -> tuple[float, float, float, float, int]:
        """Execute one reducer; returns its phase durations and load."""
        timing = cluster.timing
        value_size = self.value_bytes or (lambda _value: self.record_bytes)
        size = 0
        in_bytes = 0
        for entry in bucket.entries:
            size += len(entry)
            if isinstance(entry, BlockRows):
                in_bytes += len(entry) * (KEY_BYTES + self.record_bytes)
            else:
                in_bytes += sum(KEY_BYTES + value_size(v) for _k, v in entry)
        shuffle_seconds = timing.network_transfer(in_bytes)

        sort_stats = spill_stats(
            size,
            record_bytes=max(1, in_bytes // max(1, size)),
            memory_bytes=cluster.config.memory_per_task,
        )
        counters.spilled_records += sort_stats.spilled_records
        counters.sort_passes += sort_stats.passes
        fsort_bytes = in_bytes
        if self.combined_sort:
            fsort_bytes = int(in_bytes * COMBINED_SORT_KEY_OVERHEAD)
        fsort_seconds = timing.sort(size, fsort_bytes)

        context = TaskContext(timing)
        counters.reduce_input_records += size
        if self.reduce_task is not None:
            outputs.extend(self.reduce_task(bucket, context))
        else:
            for key, values in bucket:
                produced = self.reducer(key, values, context)
                if produced:
                    outputs.extend(produced)
        if self.combined_sort:
            # The local re-sort is subsumed by the composite framework key.
            context.group_sort_seconds = 0.0
        return (
            shuffle_seconds,
            fsort_seconds,
            context.group_sort_seconds,
            context.eval_seconds,
            size,
        )

    # -- whole job -----------------------------------------------------------------

    def run(
        self,
        input_file: DistributedFile,
        cluster: SimulatedCluster,
        tracer=None,
        sim_origin: float = 0.0,
        telemetry=None,
    ) -> JobResult:
        """Execute the job and return outputs plus the execution report.

        *tracer* (a :class:`repro.obs.Tracer`, disabled by default)
        receives the span tree of the run: a ``job`` span holding the
        ``map`` phase, per-slot task placements, and the ``reduce``
        phase with its ``shuffle``/``sort``/``group-sort``/``evaluate``
        children on the simulated clock.  *sim_origin* offsets every
        simulated timestamp, letting multi-job evaluations lay jobs
        end to end on one timeline.  *telemetry* (a
        :class:`repro.obs.telemetry.TelemetryRegistry`, disabled by
        default) receives live phase progress and row/byte rates while
        the job runs.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        timing = cluster.timing
        counters = JobCounters()
        chaos = cluster.fault_plan is not None
        failed = (
            cluster.machines_dead_at(sim_origin)
            if chaos
            else cluster.failed_machines
        )
        buckets = [ShuffleBucket() for _ in range(self.num_reducers)]

        with tracer.span("job", job=self.name) as job_span:
            wall_map_start = time.perf_counter()
            with tracer.span("map") as map_span:
                map_durations = []
                telemetry.phase("map", 0, len(input_file.blocks))
                shipped_bytes = 0
                for block in input_file.blocks:
                    records, served_by = input_file.read_block(block, failed)
                    remote = served_by != block.replicas[0]
                    if remote:
                        counters.remote_block_reads += 1
                    map_durations.append(
                        self._run_map_task(
                            records, remote, timing, counters, buckets
                        )
                    )
                    telemetry.phase(
                        "map", len(map_durations), len(input_file.blocks)
                    )
                    telemetry.mark("map.rows", len(records))
                    telemetry.mark(
                        "shuffle.bytes",
                        counters.map_output_bytes - shipped_bytes,
                    )
                    shipped_bytes = counters.map_output_bytes
                counters.map_tasks = len(map_durations)
                map_stats = None
                if chaos:
                    # Fault-aware scheduling: the plan injects crashes,
                    # failures and stragglers per attempt; reruns charge
                    # their actual cost.
                    map_makespan, map_trace, map_stats = (
                        cluster.schedule_phase(
                            "map", map_durations, origin=sim_origin
                        )
                    )
                    _account_fault_stats(counters, map_stats)
                    map_stragglers = map_stats.stragglers
                else:
                    map_factors, map_stragglers, map_speculated = (
                        cluster.straggler_factors(
                            len(map_durations), f"{self.name}:map"
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
            wall_map_end = time.perf_counter()
            if chaos:
                _add_attempt_spans(
                    tracer, "map", map_trace, sim_offset=sim_origin,
                    name="map",
                )
            else:
                tracer.add_task_spans(
                    "map", map_trace, sim_offset=sim_origin, name="map"
                )

            wall_reduce_start = time.perf_counter()
            with tracer.span("reduce") as reduce_span:
                outputs: list = []
                shuffle, fsort, gsort, evaluate, loads = [], [], [], [], []
                telemetry.phase("reduce", 0, len(buckets))
                for index, bucket in enumerate(buckets):
                    counters.reduce_tasks += 1
                    durations = self._run_reduce_task(
                        bucket, cluster, counters, outputs
                    )
                    telemetry.phase("reduce", index + 1, len(buckets))
                    telemetry.mark("reduce.rows", durations[4])
                    # Under chaos, dispatch-to-a-dead-machine is priced
                    # by real attempt accounting, not the flat 2x.
                    retry = (
                        2.0
                        if not chaos and cluster.reducer_retry_needed(index)
                        else 1.0
                    )
                    if retry > 1.0:
                        counters.task_retries += 1
                    shuffle.append(durations[0] * retry)
                    fsort.append(durations[1] * retry)
                    gsort.append(durations[2] * retry)
                    evaluate.append(durations[3] * retry)
                    loads.append(durations[4])
                counters.shuffle_bytes = counters.map_output_bytes
                counters.reduce_output_records = self.output_rows(outputs)

                reduce_stats = None
                if chaos:
                    # A lost shuffle partition re-fetches that reducer's
                    # map output once: its shuffle cost is paid twice.
                    for index in range(self.num_reducers):
                        if cluster.fault_plan.partition_lost(index):
                            shuffle[index] *= 2.0
                            counters.extra["shuffle_refetches"] += 1
                    reduce_stragglers = 0
                else:
                    reduce_factors, reduce_stragglers, reduce_speculated = (
                        cluster.straggler_factors(
                            self.num_reducers, f"{self.name}:reduce"
                        )
                    )
                    counters.extra["stragglers"] += reduce_stragglers
                    counters.extra["speculated"] += reduce_speculated
                    for stage in (shuffle, fsort, gsort, evaluate):
                        for index, factor in enumerate(reduce_factors):
                            stage[index] *= factor

                reduce_base = sim_origin + map_makespan
                slots = cluster.reduce_slots
                if chaos:
                    # Machines crashed during the map phase contribute no
                    # reduce slots; the stage-shape makespans below use
                    # what is actually alive when the reduce starts.
                    slots = max(
                        1,
                        len(cluster.live_machines_at(reduce_base))
                        * cluster.config.reduce_slots_per_machine,
                    )
                stages = [shuffle, fsort, gsort, evaluate]
                cumulative = [0.0] * (len(stages) + 1)
                for depth in range(1, len(stages) + 1):
                    partial = [
                        sum(stage[j] for stage in stages[:depth])
                        for j in range(self.num_reducers)
                    ]
                    cumulative[depth] = makespan(partial, slots)
                reducer_times = [
                    shuffle[j] + fsort[j] + gsort[j] + evaluate[j]
                    for j in range(self.num_reducers)
                ]
                if chaos:
                    reduce_makespan, reduce_trace, reduce_stats = (
                        cluster.schedule_phase(
                            "reduce", reducer_times, origin=reduce_base
                        )
                    )
                    _account_fault_stats(counters, reduce_stats)
                    reduce_stragglers = reduce_stats.stragglers
                    # Reruns stretch the phase; scale the per-stage
                    # breakdown proportionally so it still sums to the
                    # fault-aware makespan.
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
                        tasks=self.num_reducers,
                    )
                reduce_span.set_sim(reduce_base, reduce_base + reduce_makespan)
                reduce_span.set(
                    tasks=self.num_reducers,
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
                name=self.name,
                counters=counters,
                breakdown=breakdown,
                map_makespan=map_makespan,
                reduce_makespan=reduce_makespan,
                reducer_loads=loads,
                reducer_times=reducer_times,
                map_trace=map_trace,
                reduce_trace=reduce_trace,
                faults=faults,
                wall_map_start=wall_map_start,
                wall_map_end=wall_map_end,
                wall_reduce_start=wall_reduce_start,
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
        logger.debug("job %s finished: %s", self.name, report.summary())
        return JobResult(outputs=outputs, report=report)
