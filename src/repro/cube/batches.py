"""Typed columnar record batches.

A :class:`RecordBatch` holds one block of records as contiguous NumPy
columns -- one per schema field -- so the hot loops of the parallel
evaluator (map-side block routing, early aggregation, cross-process
transport) can run vectorized over whole columns instead of iterating
Python record tuples.

Batches are strictly an accelerated *representation*: they are built
once at load time from a :class:`~repro.cube.records.Schema` and round
trip exactly to the plain record tuples every scalar code path consumes
(:meth:`RecordBatch.to_records`).  Two storage planes exist:

* the **int plane** -- every column is an int64 code; the batch exposes
  a contiguous 2-D matrix (:attr:`RecordBatch.matrix`) that the
  vectorized evaluators and routers consume directly;
* **typed columns** -- a :class:`Column` per field, covering float64
  measure columns, dictionary-encoded string columns (sorted-unique
  dictionary, int64 codes), and a validity bitmap for ``None`` slots.
  Typed batches route and ship columnar but evaluate through the
  scalar path (:attr:`RecordBatch.matrix` is ``None``), which keeps
  results bit-identical.

Construction stays best-effort -- :meth:`RecordBatch.from_records`
returns ``None`` only for data no column type covers (mixed-type
columns, arbitrary objects, ragged rows, values outside int64), which
is the signal for callers to fall back to the scalar path per block.

For cross-process transport a batch compacts into a
:class:`ColumnPayload`: raw little-endian column buffers
(``ndarray.tobytes()``) using the *smallest* dtype that covers each
column's value range (floats stay float64 -- narrowing would round),
plus dictionaries, packed validity bitmaps and a tiny dtype/length
header.  On typical OLAP data this is several times smaller than
pickling lists of record tuples, and it deserializes with one
``np.frombuffer`` per column instead of one object per field.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cube.records import Record, Schema

#: zlib level for ``codec="zlib"`` buffers: best ratio; these buffers
#: are small enough that compression time is negligible next to the
#: per-object pickling it replaces.
_ZLIB_LEVEL = 6

#: Candidate wire dtypes, tried smallest first when compacting columns.
_WIRE_DTYPES = (
    np.uint8,
    np.int8,
    np.uint16,
    np.int16,
    np.uint32,
    np.int32,
    np.int64,
)

#: Fixed serialized overhead charged per column (dtype tag + length).
_COLUMN_HEADER_BYTES = 8

#: Charged per dictionary entry beyond its UTF-8 bytes (pickle frames
#: each short string with roughly this much structure).
_DICT_ENTRY_BYTES = 6

#: Fixed pickle overhead of one payload object (class path, field
#: names, tuple framing) -- measured, not derived; asserted against
#: actual ``pickle.dumps`` sizes by the accounting tests.
_PAYLOAD_OVERHEAD_BYTES = 140


def row_tuples(matrix: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-D integer array as plain-int tuples.

    ``matrix.tolist()`` allocates an intermediate list per row before
    any tuple exists; transposing first yields one flat list per column
    and lets ``zip`` assemble the row tuples directly at C speed --
    about twice as fast when rows number in the hundreds of thousands
    (fine clustering routinely produces that many near-singleton
    blocks).
    """
    if not len(matrix):
        return []
    if not matrix.shape[1]:
        return [()] * len(matrix)
    return list(zip(*matrix.T.tolist()))


def peak_magnitude(matrix: np.ndarray) -> int:
    """The largest ``|value|`` in a non-empty int matrix, exactly.

    ``np.abs`` wraps ``-2**63`` to itself, so ``np.abs(m).max()`` can
    report a negative peak and wave through a matrix whose reductions
    overflow; the extremes, converted to Python ints first, cannot.
    """
    return max(int(matrix.max()), -int(matrix.min()))


def wire_dtype(low: int, high: int) -> np.dtype:
    """The smallest candidate dtype whose range covers ``[low, high]``."""
    for candidate in _WIRE_DTYPES:
        info = np.iinfo(candidate)
        if info.min <= low and high <= info.max:
            return np.dtype(candidate)
    raise OverflowError(f"column range [{low}, {high}] exceeds int64")


def compact_array(values: np.ndarray) -> tuple[str, bytes]:
    """Serialize an array as (dtype string, smallest wire bytes).

    Integer arrays shrink to the smallest dtype covering their value
    range; float arrays stay float64 (narrowing would round values and
    break the exact round trip); empty arrays ship as uint8.
    """
    if np.issubdtype(values.dtype, np.floating):
        return (
            np.dtype(np.float64).str,
            np.ascontiguousarray(
                values.astype(np.float64, copy=False)
            ).tobytes(),
        )
    if len(values):
        dtype = wire_dtype(int(values.min()), int(values.max()))
    else:
        dtype = np.dtype(np.uint8)
    return dtype.str, np.ascontiguousarray(
        values.astype(dtype, copy=False)
    ).tobytes()


def encode_buffer(buffer: bytes, codec: str) -> bytes:
    """Apply the named codec to a raw wire buffer."""
    if codec == "zlib":
        return zlib.compress(buffer, _ZLIB_LEVEL)
    if codec == "raw":
        return buffer
    raise ValueError(f"unknown wire codec {codec!r}")


def decode_buffer(buffer: bytes, codec: str) -> bytes:
    """Invert :func:`encode_buffer`."""
    if codec == "zlib":
        return zlib.decompress(buffer)
    if codec == "raw":
        return buffer
    raise ValueError(f"unknown wire codec {codec!r}")


class Column:
    """One typed field of a batch: values plus optional dict/validity.

    Args:
        values: 1-D array -- int64 codes (plain ints or dictionary
            codes) or float64 measure values.
        dictionary: For string columns, the sorted tuple of distinct
            strings the codes index; ``None`` for numeric columns.
        validity: Boolean array, ``True`` where the record held a real
            value and ``False`` where it held ``None`` (the slot's
            stored value is then a zero filler); ``None`` when every
            value is present.
    """

    __slots__ = ("values", "dictionary", "validity")

    def __init__(self, values, dictionary=None, validity=None):
        self.values = values
        self.dictionary = dictionary
        self.validity = validity

    @property
    def is_plain_int(self) -> bool:
        """Whether this column is int codes with no dict and no nulls."""
        return (
            self.dictionary is None
            and self.validity is None
            and np.issubdtype(self.values.dtype, np.integer)
        )

    def take(self, rows: np.ndarray) -> "Column":
        return Column(
            self.values[rows],
            self.dictionary,
            None if self.validity is None else self.validity[rows],
        )

    def slice(self, start: int, stop: int) -> "Column":
        return Column(
            self.values[start:stop],
            self.dictionary,
            None
            if self.validity is None
            else self.validity[start:stop],
        )

    def to_list(self) -> list:
        """The column's original Python values (decoded, with Nones)."""
        if self.dictionary is not None:
            out = [self.dictionary[code] for code in self.values.tolist()]
        else:
            out = self.values.tolist()
        if self.validity is not None:
            flags = self.validity.tolist()
            out = [
                value if valid else None
                for value, valid in zip(out, flags)
            ]
        return out


def _build_column(values: list) -> Column | None:
    """Type one field's values, or ``None`` when no column type fits."""
    validity = None
    present = values
    if any(value is None for value in values):
        validity = np.array(
            [value is not None for value in values], dtype=bool
        )
        present = [value for value in values if value is not None]
    if all(
        type(value) is int for value in present
    ):  # bools are not ints here: True round-trips as True, not 1
        if present and not (
            min(present) >= -(2**63) and max(present) < 2**63
        ):
            return None
        column = np.zeros(len(values), dtype=np.int64)
        filler = _fill(column, values, validity)
        if filler is None:
            return None
        return Column(column, None, validity)
    if all(type(value) is float for value in present):
        column = np.zeros(len(values), dtype=np.float64)
        if _fill(column, values, validity) is None:
            return None
        return Column(column, None, validity)
    if all(type(value) is str for value in present):
        dictionary = tuple(sorted(set(present)))
        index = {value: code for code, value in enumerate(dictionary)}
        column = np.zeros(len(values), dtype=np.int64)
        for row, value in enumerate(values):
            if value is not None:
                column[row] = index[value]
        return Column(column, dictionary, validity)
    return None


def _fill(column: np.ndarray, values: list, validity) -> bool | None:
    """Copy *values* into *column*, skipping null slots; None on error."""
    try:
        if validity is None:
            column[:] = values
        else:
            for row, value in enumerate(values):
                if value is not None:
                    column[row] = value
    except (ValueError, OverflowError, TypeError):
        return None
    return True


@dataclass(frozen=True)
class ColumnPayload:
    """Typed columns serialized as compact per-column buffers.

    Plain bytes, strings and ints only, so payloads cross process
    boundaries (pickle, sockets, shared memory) without carrying NumPy
    object graphs; the arrays are rebuilt zero-copy with
    ``np.frombuffer`` on arrival.  With ``codec="zlib"`` each column
    buffer is additionally deflated, which pays off on the repetitive
    low-entropy columns (block keys, sorted coordinates) that dominate
    wide shuffles.

    ``dictionaries`` and ``validity`` are empty tuples for pure integer
    payloads (the common OLAP case) and per-column entries (``None``
    for absent) otherwise.
    """

    length: int
    dtypes: tuple[str, ...]
    buffers: tuple[bytes, ...]
    codec: str = "raw"
    dictionaries: tuple = ()
    validity: tuple = ()

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, codec: str = "raw"
    ) -> "ColumnPayload":
        """Compact a 2-D integer array into per-column wire buffers."""
        dtypes = []
        buffers = []
        for index in range(matrix.shape[1]):
            dtype, buffer = compact_array(matrix[:, index])
            dtypes.append(dtype)
            buffers.append(encode_buffer(buffer, codec))
        return cls(
            length=matrix.shape[0],
            dtypes=tuple(dtypes),
            buffers=tuple(buffers),
            codec=codec,
        )

    @classmethod
    def from_columns(
        cls, columns: tuple, length: int, codec: str = "raw"
    ) -> "ColumnPayload":
        """Compact typed columns (dict/validity aware) for the wire."""
        dtypes = []
        buffers = []
        dictionaries = []
        validity = []
        for column in columns:
            dtype, buffer = compact_array(column.values)
            dtypes.append(dtype)
            buffers.append(encode_buffer(buffer, codec))
            dictionaries.append(column.dictionary)
            validity.append(
                None
                if column.validity is None
                else encode_buffer(
                    np.packbits(column.validity).tobytes(), codec
                )
            )
        if all(entry is None for entry in dictionaries):
            dictionaries = []
        if all(entry is None for entry in validity):
            validity = []
        return cls(
            length=length,
            dtypes=tuple(dtypes),
            buffers=tuple(buffers),
            codec=codec,
            dictionaries=tuple(dictionaries),
            validity=tuple(validity),
        )

    @property
    def nbytes(self) -> int:
        """Dtype-aware serialized size: buffers, headers, dictionaries
        and validity bitmaps.

        Tracks what ``pickle.dumps(payload)`` actually produces (the
        accounting tests assert the two stay within a few percent), so
        transport reports cannot undercount dictionary-encoded string
        columns or null bitmaps.
        """
        total = _PAYLOAD_OVERHEAD_BYTES
        total += sum(
            len(buffer) + _COLUMN_HEADER_BYTES for buffer in self.buffers
        )
        for dictionary in self.dictionaries:
            if dictionary:
                total += sum(
                    len(entry.encode("utf-8")) + _DICT_ENTRY_BYTES
                    for entry in dictionary
                )
        for bitmap in self.validity:
            if bitmap is not None:
                total += len(bitmap) + _COLUMN_HEADER_BYTES
        return total

    @property
    def is_int_plane(self) -> bool:
        """Whether this payload rebuilds into an int64 matrix batch."""
        return (
            not self.dictionaries
            and not self.validity
            and all(
                np.issubdtype(np.dtype(dtype), np.integer)
                for dtype in self.dtypes
            )
        )

    def to_matrix(self) -> np.ndarray:
        """Rebuild the int64 matrix this payload was compacted from."""
        matrix = np.empty((self.length, len(self.dtypes)), dtype=np.int64)
        for index, (dtype, buffer) in enumerate(
            zip(self.dtypes, self.buffers)
        ):
            matrix[:, index] = np.frombuffer(
                decode_buffer(buffer, self.codec), dtype=np.dtype(dtype)
            )
        return matrix

    def to_columns(self) -> tuple[Column, ...]:
        """Rebuild typed :class:`Column` objects from the wire buffers."""
        columns = []
        for index, (dtype, buffer) in enumerate(
            zip(self.dtypes, self.buffers)
        ):
            raw = np.frombuffer(
                decode_buffer(buffer, self.codec), dtype=np.dtype(dtype)
            )
            if np.issubdtype(raw.dtype, np.integer):
                values = raw.astype(np.int64, copy=False)
            else:
                values = raw
            dictionary = (
                self.dictionaries[index] if self.dictionaries else None
            )
            bitmap = self.validity[index] if self.validity else None
            validity = None
            if bitmap is not None:
                validity = np.unpackbits(
                    np.frombuffer(
                        decode_buffer(bitmap, self.codec), dtype=np.uint8
                    ),
                    count=self.length,
                ).astype(bool)
            columns.append(Column(values, dictionary, validity))
        return tuple(columns)

    def to_batch(self, schema: Schema) -> "RecordBatch":
        """Rebuild the batch this payload was compacted from."""
        if len(self.dtypes) != schema.width:
            raise ValueError(
                f"payload has {len(self.dtypes)} columns, schema expects "
                f"{schema.width}"
            )
        if self.is_int_plane:
            return RecordBatch(schema, self.to_matrix())
        return RecordBatch(schema, self.to_columns(), length=self.length)


class RecordBatch:
    """One block of records in columnar form.

    Args:
        schema: The records' schema; one column per field.
        data: Either a 2-D int64 matrix of shape
            ``(records, schema.width)`` (the int plane) or a tuple of
            :class:`Column` objects (typed columns).
        length: Record count; required for typed columns (a matrix
            carries its own shape).
    """

    __slots__ = ("schema", "columns", "_matrix", "_length")

    def __init__(self, schema: Schema, data, length: int | None = None):
        self.schema = schema
        if isinstance(data, np.ndarray):
            if data.ndim != 2 or data.shape[1] != schema.width:
                raise ValueError(
                    f"matrix shape {data.shape} does not fit schema "
                    f"width {schema.width}"
                )
            self._matrix = data
            self.columns = None
            self._length = data.shape[0]
        else:
            columns = tuple(data)
            if len(columns) != schema.width:
                raise ValueError(
                    f"{len(columns)} columns do not fit schema width "
                    f"{schema.width}"
                )
            if length is None:
                length = len(columns[0].values) if columns else 0
            self.columns = columns
            self._matrix = None
            self._length = length

    # -- construction -------------------------------------------------------

    @classmethod
    def from_records(
        cls, schema: Schema, records
    ) -> "RecordBatch | None":
        """Build a batch, or ``None`` when no column type covers the data.

        The fast path accepts rectangular all-int data as one int64
        matrix.  Anything else is typed per column: float64 measures,
        dictionary-encoded strings, and validity bitmaps for ``None``
        slots.  ``None`` (rather than an exception) is the per-block
        fallback signal: mixed-type columns, arbitrary objects and
        values outside int64 all take the scalar path without aborting
        the evaluation.
        """
        rows = records if isinstance(records, list) else list(records)
        if not rows:
            return cls(
                schema, np.empty((0, schema.width), dtype=np.int64)
            )
        try:
            matrix = np.asarray(rows)
        except (ValueError, OverflowError):
            matrix = None
        if (
            matrix is not None
            and matrix.ndim == 2
            and matrix.shape[1] == schema.width
            and np.issubdtype(matrix.dtype, np.integer)
        ):
            return cls(schema, matrix.astype(np.int64, copy=False))
        if any(len(row) != schema.width for row in rows):
            return None
        columns = []
        for index in range(schema.width):
            column = _build_column([row[index] for row in rows])
            if column is None:
                return None
            columns.append(column)
        return cls(schema, tuple(columns), length=len(rows))

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def matrix(self) -> np.ndarray | None:
        """The int plane: a 2-D int64 matrix, or ``None`` for typed
        batches (floats, dictionaries or nulls present).

        The vectorized evaluators consume this directly; typed batches
        answer ``None`` and evaluate through the exact scalar path.
        """
        if self._matrix is not None:
            return self._matrix
        if self.columns is not None and all(
            column.is_plain_int for column in self.columns
        ):
            if self.columns:
                self._matrix = np.column_stack(
                    [
                        column.values.astype(np.int64, copy=False)
                        for column in self.columns
                    ]
                )
            else:
                self._matrix = np.empty((self._length, 0), dtype=np.int64)
            return self._matrix
        return None

    def column(self, index: int) -> np.ndarray:
        """The stored values of field *index* (a view).

        Int columns yield int64 codes (dictionary codes for string
        columns); float columns yield float64.  Null slots hold zero
        fillers -- consult :meth:`column_typed` for validity.
        """
        if self._matrix is not None:
            return self._matrix[:, index]
        return self.columns[index].values

    def column_typed(self, index: int) -> Column:
        """Field *index* as a :class:`Column` (dict/validity included)."""
        if self.columns is not None:
            return self.columns[index]
        return Column(self._matrix[:, index])

    def field(self, name: str) -> np.ndarray:
        """The values of the named field (dimension or fact)."""
        return self.column(self.schema.field_index(name))

    def routable(self) -> bool:
        """Whether every dimension column is plain int codes.

        Block routing maps dimension values through hierarchy levels,
        which is meaningful only for integer codes with no nulls; fact
        columns may still be typed (floats, strings, validity).
        """
        if self._matrix is not None:
            return True
        return all(
            self.columns[index].is_plain_int
            for index in range(len(self.schema.attributes))
        )

    # -- slicing ------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """A zero-copy view of rows ``start:stop``."""
        if self._matrix is not None:
            return RecordBatch(self.schema, self._matrix[start:stop])
        stop = min(stop, self._length)
        start = min(start, stop)
        return RecordBatch(
            self.schema,
            tuple(column.slice(start, stop) for column in self.columns),
            length=stop - start,
        )

    def take(self, rows: np.ndarray) -> "RecordBatch":
        """A new batch holding the given rows (fancy indexing copies)."""
        if self._matrix is not None:
            return RecordBatch(self.schema, self._matrix[rows])
        return RecordBatch(
            self.schema,
            tuple(column.take(rows) for column in self.columns),
            length=len(rows),
        )

    # -- scalar round trip --------------------------------------------------

    def to_records(self) -> list[Record]:
        """The exact record tuples this batch was built from."""
        if self._matrix is not None:
            return [tuple(row) for row in self._matrix.tolist()]
        if not self.columns:
            return [()] * self._length
        return list(
            zip(*(column.to_list() for column in self.columns))
        )

    def reduction_safe(self) -> bool:
        """Whether int64 reductions over this batch cannot overflow.

        Mirrors the vectorized evaluator's conservative guard: the sum
        of ``len(batch)`` values each bounded by the batch's largest
        magnitude must stay inside int64.  Typed batches (no int
        plane) answer ``False`` -- they evaluate via the scalar path.
        """
        if not len(self):
            return True
        matrix = self.matrix
        if matrix is None:
            return False
        return peak_magnitude(matrix) <= (2**62) // max(1, len(self))

    # -- transport ----------------------------------------------------------

    def to_payload(self, codec: str = "raw") -> ColumnPayload:
        """Compact the batch into per-column wire buffers."""
        if self._matrix is not None:
            return ColumnPayload.from_matrix(self._matrix, codec=codec)
        return ColumnPayload.from_columns(
            self.columns, self._length, codec=codec
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecordBatch({len(self)} records x {self.schema.width} cols)"


def estimated_pickle_bytes(records) -> int:
    """Measured pickle size of a scalar record payload (for reporting)."""
    import pickle

    return len(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
