"""The metric registry: bounded-memory streaming instruments.

:class:`TelemetryRegistry` is the one place every evaluator reports its
counters, gauges and distributions -- readable live while a run is in
flight (``repro top``, the JSONL log, Prometheus) and frozen into the
run manifest's ``telemetry`` section when it ends:

* :class:`StreamingHistogram` -- a fixed-bucket, log-scaled histogram.
  Observations land in ``O(1)`` with bounded memory; two histograms
  merge by bucket addition (the property cross-process telemetry
  needs).  While the population is small enough to fit the exact
  sample buffer, ``percentile()`` is *exact*; past that it answers
  from the log buckets with bounded relative error (see
  :attr:`StreamingHistogram.growth`).
* :class:`RateMeter` -- an exponentially weighted moving average of an
  event rate (rows/s, bytes/s), decayed on read so an idle meter
  honestly approaches zero.
* :class:`WindowedGauge` -- last-write-wins plus a bounded window of
  recent ``(time, value)`` samples for min/mean/max over the window.
* :class:`ResourceSample` / :func:`sample_resources` -- per-process
  CPU time, RSS and GC tallies from the stdlib only
  (:func:`resource.getrusage`, ``/proc/self/status``, :mod:`gc`).
* :class:`TelemetryRegistry` -- the driver-side namespace of the
  above, plus the merge point for cross-process
  :class:`WorkerDelta`\\ s.  Worker flushes carry *cumulative* totals
  and a per-worker sequence number, so merging is idempotent: a flush
  applied twice, out of order, or cut short by a worker death can
  never double-count or lose an acknowledged delta.

Every instrument takes an injectable ``clock`` (defaulting to
:func:`time.monotonic`), so snapshots are deterministic when driven by
the simulated clock -- the property the test suite asserts.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RateMeter",
    "ResourceSample",
    "StreamingHistogram",
    "TelemetryRegistry",
    "WindowedGauge",
    "WorkerDelta",
    "sample_resources",
]


# ---------------------------------------------------------------------------
# streaming histogram


class StreamingHistogram:
    """A bounded-memory distribution with mergeable state.

    Observations are assigned to log-scaled buckets: value ``v > 0``
    lands in bucket ``floor(log(v) / log(growth))``, clamped to a fixed
    index range, so the bucket table can never grow past
    ``max_index - min_index + 3`` entries regardless of how many
    observations arrive.  Zero and negative values share one
    underflow bucket (loads and byte counts are non-negative by
    construction).

    Percentiles are **exact** while the observation count fits the
    ``exact_limit`` sample buffer (nearest-rank over the real values).
    Past the limit the buffer is dropped and percentiles come from the
    buckets: the answer is the upper edge of the covering bucket, so
    the relative error is bounded by ``growth - 1`` (10% at the
    default 1.1).  ``summary()`` says which regime produced its
    numbers via the ``"exact"`` flag.

    Merging (:meth:`merge`) adds bucket counts and min/max/sum; two
    exact buffers concatenate while the union still fits, otherwise
    the merged histogram degrades to bucketed answers.  Merge order
    never changes a snapshot -- the property worker telemetry relies
    on.
    """

    __slots__ = (
        "name",
        "growth",
        "exact_limit",
        "_min_index",
        "_max_index",
        "_log_growth",
        "_buckets",
        "_samples",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self,
        name: str,
        growth: float = 1.1,
        exact_limit: int = 256,
        min_index: int = -128,
        max_index: int = 512,
    ):
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1.0, got {growth}")
        self.name = name
        self.growth = growth
        self.exact_limit = exact_limit
        self._min_index = min_index
        self._max_index = max_index
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._samples: Optional[list[float]] = []
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording --------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= 0.0:
            return self._min_index - 1  # the shared underflow bucket
        index = math.floor(math.log(value) / self._log_growth)
        return max(self._min_index, min(self._max_index, index))

    def observe(self, value: float) -> None:
        """Record one observation in O(1) with bounded memory."""
        value = float(value)
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._samples is not None:
            if self.count <= self.exact_limit:
                self._samples.append(value)
            else:
                self._samples = None

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold *other* in; bucket geometry must match."""
        if (other.growth, other._min_index, other._max_index) != (
            self.growth, self._min_index, self._max_index,
        ):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge incompatible "
                f"bucket geometry from {other.name!r}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if (
            self._samples is not None
            and other._samples is not None
            and self.count <= self.exact_limit
        ):
            self._samples.extend(other._samples)
        else:
            self._samples = None

    # -- reading ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        """Whether percentiles are exact (sample buffer still intact)."""
        return self._samples is not None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0..100).

        Exact (nearest-rank) while the sample buffer holds every
        observation; otherwise the upper edge of the covering log
        bucket, clamped into ``[min, max]``.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if not self.count:
            return 0.0
        if self._samples is not None:
            ordered = sorted(self._samples)
            rank = min(len(ordered) - 1, int(q / 100 * len(ordered)))
            return ordered[rank]
        target = min(self.count - 1, int(q / 100 * self.count))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > target:
                if index < self._min_index:  # underflow bucket
                    return max(0.0, self.min)
                edge = self.growth ** (index + 1)
                return max(self.min, min(self.max, edge))
        return self.max  # pragma: no cover - counts always cover target

    def summary(self) -> dict:
        """Count/min/max/mean/p50/p95/p99 as a JSON-ready mapping."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "exact": self.exact,
        }

    # -- wire form --------------------------------------------------------

    def to_dict(self) -> dict:
        """Full mergeable state (what worker flushes ship)."""
        data = {
            "growth": self.growth,
            "min_index": self._min_index,
            "max_index": self._max_index,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        if self._samples is not None:
            data["samples"] = list(self._samples)
        return data

    @classmethod
    def from_dict(cls, name: str, data: Mapping) -> "StreamingHistogram":
        """Rebuild mergeable state; inverse of :meth:`to_dict`."""
        histogram = cls(
            name,
            growth=data["growth"],
            min_index=data["min_index"],
            max_index=data["max_index"],
        )
        histogram._buckets = {
            int(k): int(v) for k, v in data.get("buckets", {}).items()
        }
        histogram.count = int(data.get("count", 0))
        histogram.total = float(data.get("total", 0.0))
        histogram.min = (
            float(data["min"]) if data.get("min") is not None else math.inf
        )
        histogram.max = (
            float(data["max"]) if data.get("max") is not None else -math.inf
        )
        samples = data.get("samples")
        histogram._samples = (
            [float(v) for v in samples] if samples is not None else None
        )
        return histogram


# ---------------------------------------------------------------------------
# EWMA rate meter


class RateMeter:
    """An exponentially weighted moving average of an event rate.

    ``mark(n)`` records *n* events at the current clock; ``rate()``
    answers events/second, smoothed over roughly *tau* seconds and
    decayed at read time, so a meter nobody marks honestly drifts to
    zero instead of freezing at its last burst.

    Events marked within one clock tick accumulate and are folded in
    at the next tick, keeping the meter deterministic under coarse
    (e.g. simulated) clocks.
    """

    __slots__ = ("name", "tau", "count", "_clock", "_rate", "_last",
                 "_pending")

    def __init__(
        self,
        name: str,
        tau: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.name = name
        self.tau = tau
        self.count = 0
        self._clock = clock
        self._rate = 0.0
        self._last: Optional[float] = None
        self._pending = 0.0

    def mark(self, n: float = 1) -> None:
        """Record *n* events now."""
        self.count += n
        now = self._clock()
        if self._last is None:
            self._last = now
            self._pending += n
            return
        elapsed = now - self._last
        if elapsed <= 0.0:
            self._pending += n
            return
        instantaneous = (self._pending + n) / elapsed
        alpha = 1.0 - math.exp(-elapsed / self.tau)
        self._rate += alpha * (instantaneous - self._rate)
        self._pending = 0.0
        self._last = now

    def rate(self) -> float:
        """Current events/second, decayed to the present."""
        if self._last is None:
            return 0.0
        elapsed = self._clock() - self._last
        if elapsed <= 0.0:
            return self._rate
        return self._rate * math.exp(-elapsed / self.tau)

    def to_dict(self) -> dict:
        return {"count": self.count, "rate": self.rate()}


# ---------------------------------------------------------------------------
# windowed gauge


class WindowedGauge:
    """Last-write-wins plus a bounded window of recent samples.

    Keeps at most *max_samples* ``(time, value)`` pairs no older than
    *window* seconds, so memory is bounded no matter how hot the write
    path is; :meth:`stats` summarizes the surviving window.
    """

    __slots__ = ("name", "window", "max_samples", "_clock", "_samples",
                 "value")

    def __init__(
        self,
        name: str,
        window: float = 60.0,
        max_samples: int = 240,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self.window = window
        self.max_samples = max_samples
        self._clock = clock
        self._samples: list[tuple[float, float]] = []
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value."""
        now = self._clock()
        self.value = value
        self._samples.append((now, value))
        self._evict(now)

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        samples = self._samples
        keep = 0
        while keep < len(samples) and samples[keep][0] < horizon:
            keep += 1
        if keep:
            del samples[:keep]
        if len(samples) > self.max_samples:
            del samples[: len(samples) - self.max_samples]

    def stats(self) -> dict:
        """Last/min/mean/max over the surviving window."""
        self._evict(self._clock())
        if not self._samples:
            return {"last": self.value}
        values = [value for _t, value in self._samples]
        return {
            "last": self.value,
            "window_min": min(values),
            "window_max": max(values),
            "window_mean": sum(values) / len(values),
        }

    def to_dict(self) -> dict:
        return self.stats()


# ---------------------------------------------------------------------------
# per-process resource sampling (stdlib only)


@dataclass(frozen=True)
class ResourceSample:
    """One process's resource odometer readings, all cumulative."""

    pid: int
    #: User + system CPU seconds consumed so far.
    cpu_seconds: float
    #: Resident set size in bytes (current if ``/proc`` is available,
    #: else the peak RSS from ``getrusage``); 0 when unknowable.
    rss_bytes: int
    #: Total garbage collections across all generations.
    gc_collections: int

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "cpu_seconds": self.cpu_seconds,
            "rss_bytes": self.rss_bytes,
            "gc_collections": self.gc_collections,
        }


def _proc_rss_bytes() -> Optional[int]:
    """Current RSS from ``/proc/self/status``, or ``None`` off-Linux."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024  # kB -> bytes
    except (OSError, ValueError, IndexError):
        pass
    return None


def sample_resources() -> ResourceSample:
    """Sample this process's CPU time, RSS and GC activity.

    Stdlib only: ``resource.getrusage`` for CPU (and peak RSS as the
    fallback when ``/proc/self/status`` is unavailable), :mod:`gc`
    statistics for collection counts.  Never raises -- unknown values
    degrade to zero.
    """
    cpu = 0.0
    peak_rss = 0
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu = usage.ru_utime + usage.ru_stime
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        peak_rss = int(usage.ru_maxrss) * scale
    except Exception:  # pragma: no cover - exotic platforms
        pass
    rss = _proc_rss_bytes()
    collections = sum(stat.get("collections", 0) for stat in gc.get_stats())
    return ResourceSample(
        pid=os.getpid(),
        cpu_seconds=cpu,
        rss_bytes=rss if rss is not None else peak_rss,
        gc_collections=collections,
    )


# ---------------------------------------------------------------------------
# worker deltas


@dataclass
class WorkerDelta:
    """One worker flush: *cumulative* totals plus a sequence number.

    Totals are cumulative since the worker started reporting under
    its name (never increments), so applying a flush is idempotent
    and ordering-insensitive: the driver keeps the highest-``seq``
    flush per worker and sums across workers at read time.  A worker
    killed mid-flush (chaos) at worst leaves its final window
    unreported -- it can never double-count work already acknowledged,
    and earlier flushes are untouched.
    """

    worker: str
    seq: int
    #: Cumulative counters under this worker name (tasks, rows, ...).
    counters: dict = field(default_factory=dict)
    #: Latest resource odometer (:meth:`ResourceSample.to_dict`).
    resources: dict = field(default_factory=dict)
    #: Mergeable histogram states (:meth:`StreamingHistogram.to_dict`),
    #: cumulative like the counters.
    histograms: dict = field(default_factory=dict)
    #: Recent trace spans as ``(span_seq, span_dict)`` pairs -- the
    #: worker's flight ring, redelivered whole each flush and deduped
    #: driver-side by :class:`repro.obs.tracectx.SpanCollector`.
    spans: list = field(default_factory=list)
    #: Each finished task's share of ``counters``, keyed by a task id
    #: unique to one evaluation.  A task whose first result was lost
    #: with a broken pool is re-run and finishes under a second worker;
    #: :meth:`TelemetryRegistry.aggregate_worker_counters` counts it once.
    tasks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "seq": self.seq,
            "counters": dict(self.counters),
            "resources": dict(self.resources),
            "histograms": dict(self.histograms),
            "spans": [list(entry) for entry in self.spans],
            "tasks": {task: dict(share) for task, share in self.tasks.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkerDelta":
        return cls(
            worker=str(data["worker"]),
            seq=int(data["seq"]),
            counters=dict(data.get("counters", {})),
            resources=dict(data.get("resources", {})),
            histograms=dict(data.get("histograms", {})),
            spans=[tuple(entry) for entry in data.get("spans", [])],
            tasks={
                str(task): dict(share)
                for task, share in data.get("tasks", {}).items()
            },
        )


# ---------------------------------------------------------------------------
# the registry


class TelemetryRegistry:
    """The driver-side namespace of instruments, created on first use.

    Built for in-flight reads: every instrument is bounded-memory,
    snapshots are cheap, and :meth:`merge_worker` folds in
    cross-process flushes idempotently.  *clock* is shared by every
    instrument the registry creates, so a simulated clock makes whole
    snapshots deterministic.

    ``enabled`` mirrors the tracer convention: instrumented code can
    hold a registry unconditionally (:data:`NULL_TELEMETRY` when off)
    and never branch.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.counters: dict[str, float] = {}
        self.rates: dict[str, RateMeter] = {}
        self.gauges: dict[str, WindowedGauge] = {}
        self.histograms: dict[str, StreamingHistogram] = {}
        #: Highest-seq flush per worker (the merge state).
        self.workers: dict[str, WorkerDelta] = {}
        #: Phase name -> (done, total) progress.
        self.progress: dict[str, tuple[int, int]] = {}
        self._frames = 0
        self._sinks: list = []

    # -- instrument access ------------------------------------------------

    def rate(self, name: str, tau: float = 5.0) -> RateMeter:
        """Get or create the rate meter called *name*."""
        meter = self.rates.get(name)
        if meter is None:
            meter = self.rates[name] = RateMeter(
                name, tau=tau, clock=self._clock
            )
        return meter

    def gauge(self, name: str, window: float = 60.0) -> WindowedGauge:
        """Get or create the windowed gauge called *name*."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = WindowedGauge(
                name, window=window, clock=self._clock
            )
        return gauge

    def histogram(self, name: str) -> StreamingHistogram:
        """Get or create the streaming histogram called *name*."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = StreamingHistogram(name)
        return histogram

    # -- recording --------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount
        self._notify()

    def mark(self, name: str, n: float = 1) -> None:
        """Record *n* events on rate meter *name*."""
        self.rate(name).mark(n)
        self._notify()

    def set_gauge(self, name: str, value: float) -> None:
        """Record *value* on windowed gauge *name*."""
        self.gauge(name).set(value)
        self._notify()

    def observe(self, name: str, value: float) -> None:
        """Record *value* into streaming histogram *name*."""
        self.histogram(name).observe(value)
        self._notify()

    def phase(self, name: str, done: int, total: int) -> None:
        """Record phase progress: *done* of *total* units finished."""
        self.progress[name] = (done, total)
        self._notify()

    def record_job_counters(self, counters, prefix: str = "job.") -> None:
        """Fold a :class:`~repro.mapreduce.counters.JobCounters` in.

        One counter per dataclass field -- the field list comes from
        :func:`dataclasses.fields`, so a counter added to the engine
        automatically appears here.  The ``extra`` Counter's entries
        land under ``<prefix>extra.<key>``.  Sinks hear of it once.
        """
        totals = self.counters
        for spec in dataclasses.fields(counters):
            value = getattr(counters, spec.name)
            if isinstance(value, Counter):
                for key, count in value.items():
                    name = f"{prefix}extra.{key}"
                    totals[name] = totals.get(name, 0) + count
            else:
                name = prefix + spec.name
                totals[name] = totals.get(name, 0) + value
        self._notify()

    # -- cross-process merge ----------------------------------------------

    def merge_worker(self, delta: WorkerDelta | Mapping) -> bool:
        """Fold one worker flush in; returns whether it advanced state.

        Flushes carry cumulative totals and a per-worker ``seq``;
        duplicates and out-of-order stragglers are dropped, so the
        merge is deterministic regardless of queue arrival order --
        including under chaos, where a killed worker's re-sent or
        half-delivered flushes must not double-count.
        """
        if not isinstance(delta, WorkerDelta):
            delta = WorkerDelta.from_dict(delta)
        current = self.workers.get(delta.worker)
        if current is not None and current.seq >= delta.seq:
            return False
        self.workers[delta.worker] = delta
        self._notify()
        return True

    def worker_totals(self) -> dict[str, dict]:
        """Per-worker sections: resources + cumulative counters."""
        return {
            worker: {
                "seq": delta.seq,
                "counters": dict(delta.counters),
                "resources": dict(delta.resources),
            }
            for worker, delta in sorted(self.workers.items())
        }

    def aggregate_worker_counters(self) -> dict[str, float]:
        """Each worker counter summed over workers' latest flushes, a
        task that finished under several workers counted once (see
        :attr:`WorkerDelta.tasks`)."""
        totals: dict[str, float] = {}
        counted: set = set()
        for _worker, delta in sorted(self.workers.items()):
            for name, value in delta.counters.items():
                totals[name] = totals.get(name, 0) + value
            for task, share in delta.tasks.items():
                if task in counted:
                    for name, value in share.items():
                        totals[name] = totals.get(name, 0) - value
                counted.add(task)
        return totals

    def merged_worker_histogram(self, name: str) -> StreamingHistogram:
        """Workers' histogram *name* states merged into one."""
        merged = StreamingHistogram(name)
        for delta in sorted(self.workers.items()):
            state = delta[1].histograms.get(name)
            if state is not None:
                merged.merge(StreamingHistogram.from_dict(name, state))
        return merged

    # -- sinks ------------------------------------------------------------

    def attach(self, sink) -> None:
        """Register a sink whose ``update(registry)`` runs per change.

        Sinks rate-limit themselves (see
        :class:`~repro.obs.exposition.TelemetryLogWriter`); the
        registry just tells them something moved.
        """
        self._sinks.append(sink)

    def _notify(self) -> None:
        for sink in self._sinks:
            sink.update(self)

    # -- snapshots --------------------------------------------------------

    def snapshot(self, final: bool = False) -> dict:
        """One JSON-ready telemetry frame of everything live."""
        self._frames += 1
        worker_counters = self.aggregate_worker_counters()
        return {
            "ts": self._clock(),
            "seq": self._frames,
            "final": final,
            "counters": dict(sorted(self.counters.items())),
            "rates": {
                name: meter.to_dict()
                for name, meter in sorted(self.rates.items())
            },
            "gauges": {
                name: gauge.to_dict()
                for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
            "progress": {
                name: list(done_total)
                for name, done_total in sorted(self.progress.items())
            },
            "workers": self.worker_totals(),
            "worker_counters": dict(sorted(worker_counters.items())),
        }


class NullTelemetry:
    """The disabled registry: every operation is a cheap no-op.

    Shares the :class:`TelemetryRegistry` recording interface so
    instrumented code never branches on whether telemetry is on.
    """

    enabled = False
    counters: dict = {}
    rates: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    workers: dict = {}
    progress: dict = {}

    def inc(self, name: str, amount: float = 1) -> None:
        return None

    def mark(self, name: str, n: float = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def phase(self, name: str, done: int, total: int) -> None:
        return None

    def record_job_counters(self, counters, prefix: str = "job.") -> None:
        return None

    def merge_worker(self, delta) -> bool:
        return False

    def worker_totals(self) -> dict:
        return {}

    def attach(self, sink) -> None:
        return None

    def snapshot(self, final: bool = False) -> dict:
        return {}


#: The shared disabled registry; instrumented code defaults to this.
NULL_TELEMETRY = NullTelemetry()
