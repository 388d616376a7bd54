"""Zero-copy shared-memory transport for the multiprocess shuffle.

Pickling a bucket serializes its records, ships the bytes through the
pool's IPC pipe and rebuilds them in the worker -- copies of data that
both sides could simply map.  With POSIX shared memory
(:mod:`multiprocessing.shared_memory`) the driver writes **one segment
per evaluation**: the batch once, then every bucket's block-key matrix,
per-block counts and row indices into that batch
(:meth:`ShmBucket.scatter`).  A worker attaches and builds
``np.ndarray`` views directly over the mapping, and only a tiny
:class:`ShmBucket` descriptor (segment name plus array offsets) crosses
the pipe.

Segments store arrays in their *evaluation* dtypes (int64 matrices,
float64 measures) rather than the compacted wire dtypes: a segment is
memory, not a network link, so the bytes saved by narrowing would be
repaid immediately with an up-cast copy in every worker.  Laying out
the int plane as one contiguous 2-D array means the worker's batch *is*
the mapping -- no per-column assembly at all.

Lifecycle discipline is the hard part of shm, so it is centralized
here:

* every segment is created through a :class:`SegmentRegistry`, and
  ``unlink_all`` runs in the evaluator's ``finally`` -- the one
  reclaim path, covering success, BrokenProcessPool rebuilds, worker
  kills, cancellation and degradation;
* the driver ``close()``\\ s its own mapping right after writing, so
  the only reference keeping the memory alive is the name -- and the
  registry owns the name;
* pool workers share the driver's ``resource_tracker`` (the tracker fd
  is inherited under fork and spawn alike), so a worker attach merely
  duplicates the driver's registration and the driver's ``unlink``
  clears it once -- and if the driver dies without unlinking, the
  tracker unlinks every registered segment at shutdown, the crash
  backstop of last resort;
* on Linux, unlinking while workers are still mapped is safe -- the
  kernel frees the memory when the last mapping goes away -- so an
  attempt abandoned on timeout or cancellation never reads freed
  memory.

:func:`leaked_segments` scans ``/dev/shm`` for this process family's
name prefix; the chaos harness asserts it returns nothing after every
fault scenario.
"""

from __future__ import annotations

import functools
import logging
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.cube.batches import Column, RecordBatch
from repro.cube.records import Schema

logger = logging.getLogger(__name__)

#: Every segment name starts with this; the leak scanner keys on it.
SEGMENT_PREFIX = "repro-shm"

#: Where POSIX shared memory surfaces as files (Linux).
_SHM_DIR = Path("/dev/shm")


@functools.cache
def shm_available() -> bool:
    """Whether POSIX shared memory actually works on this platform.

    Probed once per process: the answer is a property of the platform,
    and the probe creates and unlinks a real segment.
    """
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError, ImportError):
        return False
    probe.close()
    probe.unlink()
    return True


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of segments with our prefix still present in ``/dev/shm``.

    The chaos harness calls this after worker kills, pool rebuilds and
    SIGTERM drains: a non-empty answer means some path dropped a
    segment without unlinking it.
    """
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(
        entry.name
        for entry in _SHM_DIR.iterdir()
        if entry.name.startswith(prefix)
    )


def _aligned(nbytes: int) -> int:
    """Round a byte count up to an 8-byte boundary."""
    return -(-nbytes // 8) * 8


class _Layout:
    """Accumulates arrays into one contiguous 8-byte-aligned layout."""

    def __init__(self):
        self.entries: list[tuple[int, np.ndarray]] = []
        self.nbytes = 0

    def add(self, array: np.ndarray) -> int:
        """Reserve space for *array*; returns its segment offset."""
        array = np.ascontiguousarray(array)
        offset = self.nbytes
        self.entries.append((offset, array))
        self.nbytes += _aligned(array.nbytes)
        return offset

    def write(self, buf) -> None:
        view = np.frombuffer(buf, dtype=np.uint8)
        for offset, array in self.entries:
            flat = array.reshape(-1).view(np.uint8)
            view[offset:offset + flat.nbytes] = flat


class SegmentRegistry:
    """Driver-side owner of every shared-memory segment of one run.

    ``unlink_all`` (always run, via ``finally``) reclaims every segment
    the run created, whatever ended it; a second call is a no-op.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX):
        token = secrets.token_hex(4)
        self.prefix = f"{prefix}-{os.getpid()}-{token}"
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._serial = 0
        self.created_bytes = 0

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """A fresh tracked segment (caller writes, then closes its map)."""
        self._serial += 1
        segment = shared_memory.SharedMemory(
            name=f"{self.prefix}-{self._serial}",
            create=True,
            size=max(1, nbytes),
        )
        self._segments[segment.name] = segment
        self.created_bytes += max(1, nbytes)
        return segment

    def unlink_all(self) -> None:
        """Reclaim every segment (the ``finally`` backstop); safe while
        workers are still mapped."""
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - driver views alive
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach that leaves ownership with the driver.

    CPython's ``SharedMemory`` registers the name with the
    ``resource_tracker`` even on attach -- but pool workers (fork and
    spawn alike) inherit the *driver's* tracker, whose name cache is a
    set: the worker's register collapses into the driver's original
    entry, and the driver's eventual ``unlink`` clears it exactly once.
    Unregistering here would strip that shared entry out from under the
    driver.  (The tracker doubles as the crash backstop: if the driver
    dies without unlinking, the tracker unlinks every registered
    segment at shutdown.)
    """
    return shared_memory.SharedMemory(name=name, create=False)


#: Array-slot codes: (dtype, element size) per stored plane.
_CODES = {"i8": np.int64, "f8": np.float64, "u1": np.uint8}


@dataclass(frozen=True)
class ShmBucket:
    """Picklable handle to one gather task's bucket in shared memory.

    The segment holds one evaluation's batch and every bucket's block
    arrays; this handle records where the batch and *its* block-key
    matrix, per-block counts and row indices sit.  ``matrix`` describes
    the int plane as one 2-D array; typed payloads (float measures,
    dictionary strings, nulls) ship per-column slots instead.  Row
    indices point into the whole batch.
    """

    segment: str
    #: Size of the whole segment, every bucket's arrays included.
    nbytes: int
    length: int
    #: int plane: ``(rows, cols, offset)`` of one 2-D int64 array.
    matrix: tuple | None
    #: typed plane: per-column ``(code, offset)`` slots.
    columns: tuple = ()
    dictionaries: tuple = ()
    #: per-column validity: ``None`` or the offset of a uint8 array.
    validity: tuple = ()
    keys: tuple = (0, 0, 0)
    counts: tuple = (0, 0)
    indices: tuple = (0, 0)

    @staticmethod
    def build(
        registry: SegmentRegistry,
        batch: RecordBatch,
        bucket_blocks: list,
        row_maps: np.ndarray,
    ) -> "ShmBucket":
        """Write *batch* and one bucket into a fresh segment.

        *bucket_blocks* holds the bucket's ``(block_key, row indices)``
        entries and *row_maps* the concatenated per-block indices into
        *batch*.
        """
        keys = np.asarray(
            [key for key, _rows in bucket_blocks], dtype=np.int64
        )
        if keys.ndim == 1:  # pragma: no cover - no blocks
            keys = keys.reshape(0, 0)
        counts = np.asarray(
            [len(rows) for _key, rows in bucket_blocks], dtype=np.int64
        )
        (bucket,) = ShmBucket.scatter(
            registry, batch, [(keys, counts, row_maps)]
        )
        return bucket

    @staticmethod
    def scatter(
        registry: SegmentRegistry,
        batch: RecordBatch,
        buckets: list,
    ) -> list["ShmBucket"]:
        """Write *batch* once, then every bucket's block arrays, into one
        fresh segment; one handle per bucket, in order.

        Each bucket is ``(keys, counts, rows)``: the block-key matrix
        (one row per block), each block's row count, and the blocks'
        row indices into *batch*, block-major.
        """
        layout = _Layout()
        matrix = batch.matrix
        columns_meta: list = []
        dictionaries: list = []
        validity_meta: list = []
        if matrix is not None:
            matrix = np.ascontiguousarray(matrix, dtype=np.int64)
            matrix_meta = (
                matrix.shape[0], matrix.shape[1], layout.add(matrix)
            )
        else:
            matrix_meta = None
            for index in range(batch.schema.width):
                column = batch.column_typed(index)
                code = (
                    "f8"
                    if np.issubdtype(column.values.dtype, np.floating)
                    else "i8"
                )
                offset = layout.add(
                    column.values.astype(_CODES[code], copy=False)
                )
                columns_meta.append((code, offset))
                dictionaries.append(column.dictionary)
                validity_meta.append(
                    None
                    if column.validity is None
                    else layout.add(column.validity.astype(np.uint8))
                )
        slots = []
        for keys, counts, rows in buckets:
            slots.append((
                (
                    keys.shape[0], keys.shape[1],
                    layout.add(keys.astype(np.int64, copy=False)),
                ),
                (layout.add(counts.astype(np.int64, copy=False)), len(counts)),
                (layout.add(rows.astype(np.int64, copy=False)), len(rows)),
            ))

        segment = registry.create(layout.nbytes)
        try:
            layout.write(segment.buf)
        finally:
            # Drop the driver's mapping immediately: from here on the
            # registry owns the segment by name alone.
            segment.close()
        return [
            ShmBucket(
                segment=segment.name,
                nbytes=layout.nbytes,
                length=len(batch),
                matrix=matrix_meta,
                columns=tuple(columns_meta),
                dictionaries=tuple(dictionaries),
                validity=tuple(validity_meta),
                keys=keys_meta,
                counts=counts_meta,
                indices=indices_meta,
            )
            for keys_meta, counts_meta, indices_meta in slots
        ]

    def attach(self) -> "ShmBucketView":
        """Map the segment and build zero-copy array views (worker side)."""
        return ShmBucketView(self)


class ShmBucketView:
    """A worker's live view of a :class:`ShmBucket`.

    All arrays are views straight into the shared mapping -- nothing is
    copied until the evaluator fancy-indexes a task's rows.  Close
    **after** dropping every derived array: a mapping with live views
    cannot be unmapped, and :meth:`close` falls back to leaking the map
    (reclaimed at worker exit) rather than failing the task.
    """

    def __init__(self, bucket: ShmBucket):
        self.bucket = bucket
        self._segment = attach_segment(bucket.segment)

    def _array(self, code: str, offset: int, count: int) -> np.ndarray:
        return np.frombuffer(
            self._segment.buf, dtype=_CODES[code], count=count,
            offset=offset,
        )

    def batch(self, schema: Schema) -> RecordBatch:
        """The payload records as a zero-copy :class:`RecordBatch`."""
        bucket = self.bucket
        if bucket.matrix is not None:
            rows, cols, offset = bucket.matrix
            matrix = self._array("i8", offset, rows * cols).reshape(
                rows, cols
            )
            return RecordBatch(schema, matrix)
        columns = []
        for index, (code, offset) in enumerate(bucket.columns):
            values = self._array(code, offset, bucket.length)
            validity_offset = bucket.validity[index]
            validity = (
                None
                if validity_offset is None
                else self._array(
                    "u1", validity_offset, bucket.length
                ).view(bool)
            )
            columns.append(
                Column(values, bucket.dictionaries[index], validity)
            )
        return RecordBatch(schema, tuple(columns), length=bucket.length)

    def block_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, counts, indices)`` as views: the block-key matrix
        (one row per block), each block's row count, and every block's
        payload row indices concatenated in block order."""
        rows, cols, offset = self.bucket.keys
        keys = self._array("i8", offset, rows * cols).reshape(rows, cols)
        counts_offset, num_blocks = self.bucket.counts
        counts = self._array("i8", counts_offset, num_blocks)
        indices_offset, total = self.bucket.indices
        indices = self._array("i8", indices_offset, total)
        return keys, counts, indices

    def blocks(self) -> list:
        """The ``(block_key, row index array)`` entries (key tuples copy,
        index arrays stay views)."""
        keys, counts, indices = self.block_arrays()
        num_blocks = len(counts)
        offsets = np.zeros(num_blocks + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return [
            (
                tuple(int(value) for value in keys[i]),
                indices[offsets[i]:offsets[i + 1]],
            )
            for i in range(num_blocks)
        ]

    def close(self) -> None:
        """Unmap the segment; never raises into the task."""
        try:
            self._segment.close()
        except BufferError:  # views still alive: leak until worker exit
            logger.warning(
                "shm segment %s still referenced at close; "
                "unmapping deferred to process exit",
                self.bucket.segment,
            )
