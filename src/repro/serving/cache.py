"""The cross-run measure cache.

A :class:`MeasureCache` stores materialized
:class:`~repro.local.measure_table.MeasureTable` rows under
content-addressed keys (:mod:`repro.serving.signature`): the hash of
the dataset fingerprint plus the measure's structural definition and
granularity.  Keys never mention names or paths, so cache entries
survive query renames and invalidate automatically when the data
changes (a new fingerprint simply never matches old keys).

Two backing modes share one interface:

* in-memory (``MeasureCache()``) -- entries live for the process;
* directory-backed (``MeasureCache("/path")``, the CLI's
  ``--cache-dir``) -- one JSON file per entry, persisted across runs.

A long-lived process (the serving daemon) cannot let the cache grow
without bound, so both modes support eviction: *max_bytes* caps the
total serialized size and evicts least-recently-used entries past it,
and *ttl* (seconds) expires entries by age at lookup time.  Evictions
are tallied in :class:`CacheStats` and mirrored to live telemetry as
``cache.evictions`` / ``cache.bytes``.

Corrupt or unserializable entries degrade to misses/skipped stores --
each logged as a structured warning naming the cache key, counted in
:class:`CacheStats`, and evicted so the next run does not trip over the
same bad bytes; the cache never fails an evaluation.  The batch
executor stores a share group's entries only after that group's job
succeeded, so retrying or re-running a failed group never invalidates
what completed groups already cached.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.cube.regions import Granularity
from repro.local.measure_table import MeasureTable
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = ["CacheStats", "MeasureCache"]

logger = logging.getLogger(__name__)


@dataclass
class CacheStats:
    """Hit/miss/store accounting for one cache over its lifetime."""

    #: Tables served from the cache: ``get`` calls that found a usable
    #: entry plus probed tables an answer used (``record_hits``).
    hits: int = 0
    #: Lookups that found nothing: ``contains``, ``probe`` and ``get``
    #: calls that came back empty, expired or unreadable.
    misses: int = 0
    #: Entries written (in memory or to disk).
    stores: int = 0
    #: Entries that could not be read back (corrupt JSON, bad rows);
    #: each also counts as a miss and is evicted.
    corrupt: int = 0
    #: Entries skipped on store because their rows are not
    #: JSON-serializable (directory-backed mode only).
    store_errors: int = 0
    #: Entries removed: LRU pressure past ``max_bytes``, TTL expiry,
    #: or eviction-on-corruption.
    evictions: int = 0

    def snapshot(self) -> "CacheStats":
        """An immutable copy of the current tallies."""
        return replace(self)

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "store_errors": self.store_errors,
            "evictions": self.evictions,
        }


@dataclass
class _Entry:
    """In-process index record: serialized size and creation time."""

    size: int
    created: float


class MeasureCache:
    """Content-addressed store of materialized measure tables.

    *directory* selects the backing: ``None`` keeps entries in process
    memory; a path persists one ``<key>.json`` file per entry (created
    on first store).  *max_bytes* bounds the total serialized payload
    size -- stores past the bound evict least-recently-used entries
    first.  *ttl* (seconds) expires entries by age: an expired entry
    reads as absent and is evicted on discovery.  Every lookup, store
    and eviction is tallied in :attr:`stats`.  *clock* exists for
    tests (defaults to :func:`time.time`).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: Optional[int] = None,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.directory: Optional[Path] = (
            Path(directory) if directory is not None else None
        )
        self.max_bytes = max_bytes
        self.ttl = ttl
        self._clock = clock
        self._memory: dict[str, dict] = {}
        #: LRU index, least-recently-used first.  For directory-backed
        #: caches it is seeded from the files present at construction
        #: (recency then approximated by mtime).
        self._index: "OrderedDict[str, _Entry]" = OrderedDict()
        self.stats = CacheStats()
        self.telemetry = NULL_TELEMETRY
        if self.directory is not None and self.directory.exists():
            found = sorted(
                self.directory.glob("*.json"),
                key=lambda path: path.stat().st_mtime,
            )
            for path in found:
                stat = path.stat()
                self._index[path.stem] = _Entry(
                    size=stat.st_size, created=stat.st_mtime
                )

    def attach_telemetry(self, registry) -> None:
        """Mirror hit/miss/store traffic into a live telemetry registry.

        Live counters land under ``cache.hits`` / ``cache.misses`` /
        ``cache.stores`` / ``cache.evictions`` plus the ``cache.bytes``
        gauge, which is what the ``repro top`` hit-rate line reads.
        :attr:`stats` stays the post-mortem source of truth.
        """
        self.telemetry = registry if registry is not None else NULL_TELEMETRY
        self.telemetry.set_gauge("cache.bytes", float(self.total_bytes))

    # -- lookup -----------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a live (non-expired) entry exists.

        An absent key counts as a miss (the cache was consulted and
        could not help); a present key is *not* counted as a hit.
        """
        present = key in self._memory or (
            self.directory is not None and self._path(key).exists()
        )
        if present and self._expire_if_stale(key):
            present = False
        if not present:
            self.stats.misses += 1
            self.telemetry.inc("cache.misses")
        else:
            self._touch(key)
        return present

    def get(self, key: str, granularity: Granularity) -> MeasureTable | None:
        """The cached table under *key* as a hit, or ``None`` (counted).

        One :meth:`probe` plus :meth:`record_hits` for what it found.
        """
        table = self.probe(key, granularity)
        if table is not None:
            self.record_hits(1)
        return table

    def probe(
        self, key: str, granularity: Granularity
    ) -> MeasureTable | None:
        """The cached table under *key*, or ``None`` (counted) on a miss.

        The table is read-only (:meth:`MeasureTable.read_only`); in
        memory mode it wraps the stored rows themselves, so a probe
        does no per-row work.  A found table is *not* counted as a
        hit: the planner probes every measure of a component once and
        :meth:`record_hits` tallies the ones an answer then uses.
        *granularity* comes from the measure whose signature produced
        the key, so it is not trusted from disk.
        """
        if self._expire_if_stale(key):
            self.stats.misses += 1
            self.telemetry.inc("cache.misses")
            return None
        payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            payload = self._read(key)
        if payload is None:
            self.stats.misses += 1
            self.telemetry.inc("cache.misses")
            return None
        try:
            raw = payload["rows"]
            if isinstance(raw, dict):  # memory-mode native form
                rows = raw
            else:
                rows = {tuple(coords): value for coords, value in raw}
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "cache: corrupt entry (bad rows) key=%s error=%r; evicting",
                key, exc,
            )
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.telemetry.inc("cache.misses")
            self._evict(key)
            return None
        self._touch(key)
        return MeasureTable.read_only(granularity, rows)

    def record_hits(self, count: int) -> None:
        """Tally *count* probed tables that an answer used as hits."""
        self.stats.hits += count
        self.telemetry.inc("cache.hits", count)

    def get_states(self, key: str) -> dict[tuple, list] | None:
        """The sidecar accumulator states stored with *key*, if any.

        Incremental maintenance stores per-coordinate partial states
        (``coords -> accumulator``) next to finalized rows for
        aggregates whose finalize step is lossy (``avg`` keeps
        ``[sum, count]``).  Entries written by batch/serve flows carry
        no states; patching then rebuilds them from the base data once.
        Not a counted lookup -- callers have already established the
        entry via :meth:`contains`/:meth:`get`/:meth:`probe`.
        """
        payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            payload = self._read(key)
        if payload is None:
            return None
        states = payload.get("states")
        if states is None:
            return None
        if isinstance(states, dict):  # memory-mode native form
            return {
                coords: list(state) for coords, state in states.items()
            }
        try:
            return {tuple(coords): list(state) for coords, state in states}
        except (TypeError, ValueError):
            return None

    def get_partitions(self, key: str) -> list[dict] | None:
        """The append-partition provenance stored with *key*, if any.

        A list of ``{"digest", "n_records"}`` dicts, one per partition
        the entry's fingerprint was built from (base first).  ``None``
        for entries written without provenance.  Not a counted lookup.
        """
        payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            payload = self._read(key)
        if payload is None:
            return None
        partitions = payload.get("partitions")
        if not isinstance(partitions, list):
            return None
        return partitions

    # -- store ------------------------------------------------------------

    def put(
        self,
        key: str,
        table: MeasureTable,
        measure_name: str = "",
        partitions: Optional[list[dict]] = None,
        states: Optional[dict] = None,
    ) -> bool:
        """Store *table* under *key*; returns whether it was persisted.

        Existing entries are left untouched (content addressing makes
        them identical by construction).  Directory-backed stores that
        cannot serialize the rows are skipped and counted, never
        raised.  A store past *max_bytes* evicts least-recently-used
        entries until the new entry fits.

        *partitions* attaches append provenance (see
        :meth:`get_partitions`); *states* attaches per-coordinate
        accumulator states (see :meth:`get_states`).  Both are optional
        and ignored by readers that do not know about them.
        """
        if self.contains(key):
            return True
        created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        if self.directory is None:
            # Memory mode keeps native structures -- no row flattening
            # or JSON round-trip on the hot (append-maintenance) path.
            # Size is charged from an estimate so byte-bounded eviction
            # still sees the entry; :meth:`spill_to` converts to the
            # JSON form if persistence is requested later.
            payload = {
                "key": key,
                "measure": measure_name,
                "granularity": list(table.granularity.levels),
                "rows": dict(table.values),
                "created_at": created_at,
            }
            size = 256 + 64 * len(table)
            if partitions is not None:
                payload["partitions"] = partitions
            if states is not None:
                payload["states"] = {
                    coords: list(state)
                    for coords, state in states.items()
                }
                size += 64 * len(states)
            self._memory[key] = payload
        else:
            payload = {
                "key": key,
                "measure": measure_name,
                "granularity": list(table.granularity.levels),
                "rows": [
                    [list(coords), value] for coords, value in table.items()
                ],
                "created_at": created_at,
            }
            if partitions is not None:
                payload["partitions"] = partitions
            if states is not None:
                payload["states"] = [
                    [list(coords), list(state)]
                    for coords, state in states.items()
                ]
            try:
                text = json.dumps(payload)
                size = len(text)
            except (TypeError, ValueError) as exc:
                logger.warning("cache: cannot serialize %s: %s", key, exc)
                self.stats.store_errors += 1
                return False
            self.directory.mkdir(parents=True, exist_ok=True)
            self._path(key).write_text(text)
        self._index[key] = _Entry(size=size, created=self._clock())
        self._index.move_to_end(key)
        self.stats.stores += 1
        self.telemetry.inc("cache.stores")
        self._shrink_to_fit(spare=key)
        self.telemetry.set_gauge("cache.bytes", float(self.total_bytes))
        return True

    def discard(self, key: str) -> None:
        """Drop *key* if present (tallied as an eviction when it was).

        Incremental maintenance uses this to retire superseded
        old-fingerprint entries once their successors are stored.
        """
        self._evict(key)

    def spill_to(self, directory: str | Path) -> int:
        """Persist in-memory entries as ``<key>.json`` files.

        Directory-backed caches are already durable; this is the
        graceful-drain hook for memory caches (the daemon's
        ``--cache-spill`` option).  Unserializable entries are skipped
        and counted as store errors.  Returns how many files were
        written.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written = 0
        for key, payload in self._memory.items():
            try:
                text = json.dumps(self._json_ready(payload))
            except (TypeError, ValueError) as exc:
                logger.warning(
                    "cache: cannot spill %s: %s", key, exc
                )
                self.stats.store_errors += 1
                continue
            (target / f"{key}.json").write_text(text)
            written += 1
        return written

    # -- eviction ---------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total serialized size of the indexed entries."""
        return sum(entry.size for entry in self._index.values())

    def _shrink_to_fit(self, spare: str | None = None) -> None:
        """Evict LRU entries until the cache fits *max_bytes*.

        *spare* protects the just-stored key: a single oversized entry
        stays (evicting it immediately would make the store a lie) and
        simply leaves the cache at its floor size.
        """
        if self.max_bytes is None:
            return
        while self.total_bytes > self.max_bytes and len(self._index) > 1:
            victim = next(iter(self._index))
            if victim == spare:
                # The new entry alone exceeds the bound; everything
                # else is already gone.
                break
            logger.info(
                "cache: evicting %s under byte pressure "
                "(%d > %d bytes)",
                victim, self.total_bytes, self.max_bytes,
            )
            self._evict(victim)

    def _expire_if_stale(self, key: str) -> bool:
        """Evict *key* if its TTL has lapsed; returns whether it did."""
        if self.ttl is None:
            return False
        entry = self._index.get(key)
        if entry is None:
            return False
        if self._clock() - entry.created <= self.ttl:
            return False
        logger.info("cache: entry %s expired after ttl=%ss", key, self.ttl)
        self._evict(key)
        return True

    def _evict(self, key: str) -> None:
        """Drop one entry from memory/disk and the index; tallied."""
        removed = self._memory.pop(key, None) is not None
        self._index.pop(key, None)
        if self.directory is not None:
            try:
                os.remove(self._path(key))
                removed = True
            except OSError:
                pass
        if removed:
            self.stats.evictions += 1
            self.telemetry.inc("cache.evictions")
            self.telemetry.set_gauge("cache.bytes", float(self.total_bytes))

    def _touch(self, key: str) -> None:
        """Refresh *key*'s LRU position (most recently used)."""
        if key in self._index:
            self._index.move_to_end(key)

    # -- internals --------------------------------------------------------

    @staticmethod
    def _json_ready(payload: dict) -> dict:
        """A JSON-serializable copy of a memory-mode payload.

        Memory entries keep rows and states as native dicts keyed by
        coordinate tuples; the JSON file form flattens both to
        ``[[coords, value], ...]`` lists.
        """
        data = dict(payload)
        rows = data.get("rows")
        if isinstance(rows, dict):
            data["rows"] = [
                [list(coords), value] for coords, value in rows.items()
            ]
        states = data.get("states")
        if isinstance(states, dict):
            data["states"] = [
                [list(coords), list(state)]
                for coords, state in states.items()
            ]
        return data

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _read(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            text = path.read_text()
            payload = json.loads(text)
        except FileNotFoundError:
            self._index.pop(key, None)
            return None
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning(
                "cache: corrupt entry (unreadable) key=%s path=%s "
                "error=%r; evicting",
                key, path, exc,
            )
            self.stats.corrupt += 1
            self._evict(key)
            return None
        if key not in self._index:
            # Written by another process since we indexed the
            # directory; adopt it so eviction accounting sees it.
            self._index[key] = _Entry(
                size=len(text), created=self._clock()
            )
        return payload

    def __len__(self) -> int:
        stored = set(self._memory)
        if self.directory is not None and self.directory.exists():
            stored.update(
                path.stem for path in self.directory.glob("*.json")
            )
        return len(stored)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.directory or "memory"
        return f"MeasureCache({where}, {self.stats.to_dict()})"
