"""Content addressing for measures and datasets.

The measure cache (:mod:`repro.serving.cache`) stores materialized
measure tables under keys derived from *what was computed over which
data*, never from names or paths:

* :func:`measure_signature` hashes a measure's full defining subgraph --
  granularity, aggregate, combine expression, and every edge
  (relationship, window, per-edge aggregate) down to the basic measures.
  Measure **names never enter the hash**, so two queries defining the
  same computation under different names share one cache entry.
* :func:`dataset_fingerprint` hashes the schema shape plus every record,
  so any change to the data (or to the hierarchy levels coordinates are
  derived through) invalidates all entries for that dataset.
* :func:`cache_key` combines the two into the entry's address.

Append-only growth gets two extra primitives.  :class:`DatasetHasher`
maintains the same stream hash incrementally: feeding it the base
records and then a delta yields exactly the fingerprint of their
concatenation, so a daemon can track its dataset's identity in O(delta)
per append instead of rehashing history.  :func:`partition_digest`
hashes one append partition on its own; the per-partition digests chain
into a Merkle-style :func:`merkle_root` that cache entries carry as
provenance, letting incremental maintenance detect out-of-order or
overlapping appends (a mismatched history is recomputed, never patched).

Signatures identify aggregate functions and combine expressions by
their registered names (``sum``, ``ratio``, ...), which is exact for
the built-ins; user-defined functions must keep a name's semantics
stable for cache hits to be sound.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.cube.records import Record, Schema
from repro.mapreduce.dfs import DistributedFile
from repro.query.measures import Measure

__all__ = [
    "DatasetHasher",
    "cache_key",
    "dataset_fingerprint",
    "measure_signature",
    "merkle_root",
    "partition_digest",
]


def measure_signature(measure: Measure) -> str:
    """A name-independent structural hash of one measure's definition.

    The value is :attr:`Measure.signature
    <repro.query.measures.Measure.signature>`, computed once per measure
    and cached on it.
    """
    return measure.signature


def _schema_descriptor(schema: Schema) -> str:
    """The schema shape that region coordinates depend on."""
    parts = []
    for attribute in schema.attributes:
        levels = ",".join(
            f"{level.name}@{level.depth}"
            for level in attribute.hierarchy.levels
        )
        parts.append(f"{attribute.name}({levels})")
    return "|".join(parts) + "|facts:" + ",".join(schema.facts)


def dataset_fingerprint(
    data: Sequence[Record] | Iterable[Record] | DistributedFile,
    schema: Schema,
) -> str:
    """A content hash of *data* under *schema*.

    Streams every record through SHA-256 (records are plain tuples with
    stable ``repr``), prefixed by the schema's attribute/level shape, so
    the fingerprint changes whenever the records or the hierarchy
    structure coordinates are computed through change.
    """
    hasher = hashlib.sha256()
    hasher.update(_schema_descriptor(schema).encode())
    records = data.records() if isinstance(data, DistributedFile) else data
    count = 0
    for record in records:
        hasher.update(repr(record).encode())
        count += 1
    hasher.update(f"|n={count}".encode())
    return hasher.hexdigest()[:32]


class DatasetHasher:
    """Incrementally maintained :func:`dataset_fingerprint`.

    The batch fingerprint streams ``schema descriptor, record reprs,
    |n=count`` through one SHA-256.  That shape is deliberately
    append-friendly: the count lands only in the *final* block, so a
    hasher fed the base records and then a delta finalizes -- via a
    throwaway ``copy()`` -- to exactly ``dataset_fingerprint(base +
    delta)``.  The daemon keeps one of these per dataset and pays
    O(len(delta)) per append while its cache keys stay interchangeable
    with every batch and cold-start flow.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.count = 0
        self._hasher = hashlib.sha256()
        self._hasher.update(_schema_descriptor(schema).encode())

    def update(self, records: Iterable[Record]) -> int:
        """Absorb *records*; returns how many were absorbed."""
        absorbed = 0
        for record in records:
            self._hasher.update(repr(record).encode())
            absorbed += 1
        self.count += absorbed
        return absorbed

    def fingerprint(self) -> str:
        """The fingerprint of everything absorbed so far.

        Non-destructive: finalizes a copy, so more records may still be
        absorbed afterwards.
        """
        final = self._hasher.copy()
        final.update(f"|n={self.count}".encode())
        return final.hexdigest()[:32]


def partition_digest(
    records: Sequence[Record] | Iterable[Record], schema: Schema
) -> str:
    """A content hash of one append partition on its own.

    Unlike :func:`dataset_fingerprint` this identifies a *slice* of the
    dataset independent of everything before it; cache entries record
    the digest chain of the partitions they were built from.
    """
    hasher = hashlib.sha256()
    hasher.update(b"partition|")
    hasher.update(_schema_descriptor(schema).encode())
    count = 0
    for record in records:
        hasher.update(repr(record).encode())
        count += 1
    hasher.update(f"|n={count}".encode())
    return hasher.hexdigest()[:32]


def merkle_root(digests: Sequence[str]) -> str:
    """Chain per-partition digests into one provenance root.

    Order-sensitive by construction (appends are ordered events):
    ``merkle_root([a, b])`` differs from ``merkle_root([b, a])``, and
    any replayed or dropped partition changes the root.  The empty
    chain has a fixed root so "no partitions recorded" is itself a
    verifiable statement.
    """
    root = hashlib.sha256(b"merkle|").hexdigest()[:32]
    for digest in digests:
        root = hashlib.sha256(f"{root}|{digest}".encode()).hexdigest()[:32]
    return root


def cache_key(fingerprint: str, measure: Measure) -> str:
    """The cache address of *measure* materialized over *fingerprint*."""
    text = f"{fingerprint}|{measure_signature(measure)}"
    return hashlib.sha256(text.encode()).hexdigest()[:32]
