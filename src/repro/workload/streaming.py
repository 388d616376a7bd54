"""Continuous weblog sessions: the append-heavy streaming scenario.

The batch weblog scenario (:mod:`repro.workload.weblog`) asks holistic
questions -- medians -- which an append can change anywhere, so it
exercises the cache's *invalidation* story.  This module is its
streaming twin: the same search-session schema, but a query whose
measures are all incrementally maintainable (sums, counts, a ratio and
a sliding-window average), plus a session generator that emits data as
*watermarked partitions* -- each partition's timestamps confined to its
own slice of the time domain, arriving in order, the way a log shipper
drains an hour at a time.  Under that discipline an append can only
dirty the newest time slice, so regional sibling-window repair touches
a bounded frontier instead of the whole history.

Used by ``repro append``, the daemon's live-append path, the
``append_smoke`` CI step and the benchmark's ``serve_append`` workload.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from repro.cube.records import Record, Schema
from repro.query.builder import WorkflowBuilder
from repro.query.functions import RATIO
from repro.query.workflow import Workflow
from repro.workload.weblog import CLICK_CARDINALITY, KEYWORDS, weblog_schema

__all__ = ["session_stream", "streaming_query", "streaming_schema"]


def streaming_schema(days: int = 1) -> Schema:
    """The weblog schema at minute resolution.

    Minute-level base timestamps keep the coordinate space compact
    (1440 slots per day) so long streams of small appends stay cheap to
    demonstrate and test.
    """
    return weblog_schema(days=days, temporal_base="minute")


def streaming_query(schema: Schema) -> Workflow:
    """S1..S4: the weblog questions, restated maintainably.

    S1: per keyword and minute, total result-link clicks (sum).
    S2: per keyword and hour, the number of sessions (count).
    S3: per keyword and minute, S1 over the hour's S2 -- clicks per
        session, minute-by-minute against the hourly session volume.
    S4: per keyword, the ten-minute moving average of S3.

    Every aggregate here admits exact re-folding (integer sums and
    counts; the window average re-evaluates its slices), so an append
    classifies S1/S2 as *patchable*, S3 as derivable from its patched
    sources, and S4 as *regional* -- no measure ever needs the
    historical records again.
    """
    builder = WorkflowBuilder(schema)
    builder.basic(
        "S1", over={"keyword": "word", "time": "minute"},
        field="page_count", aggregate="sum",
    )
    builder.basic(
        "S2", over={"keyword": "word", "time": "hour"},
        field="page_count", aggregate="count",
    )
    (
        builder.composite("S3", over={"keyword": "word", "time": "minute"})
        .from_self("S1")
        .from_parent("S2")
        .combine(RATIO)
    )
    (
        builder.composite("S4", over={"keyword": "word", "time": "minute"})
        .window("S3", attribute="time", low=-9, high=0, aggregate="avg")
    )
    return builder.build()


def session_stream(
    schema: Schema,
    partitions: int,
    records_per_partition: int,
    seed: int = 42,
) -> Iterator[list[Record]]:
    """Yield *partitions* watermarked batches of search sessions.

    The time domain is cut into equal slices, one per partition;
    partition ``i`` only carries timestamps from slice ``i``, and
    partitions arrive oldest-first -- the watermark discipline of a
    well-behaved log pipeline.  Click-count distributions match
    :func:`~repro.workload.weblog.generate_sessions` so the streaming
    and batch scenarios describe the same traffic.
    """
    if partitions <= 0:
        raise ValueError(f"need at least one partition, got {partitions}")
    rng = random.Random(seed)
    time_card = schema.attribute("time").hierarchy.base_cardinality
    slice_width = max(1, time_card // partitions)
    n_keywords = len(KEYWORDS)
    weights = [1.0 / math.sqrt(rank + 1) for rank in range(n_keywords)]
    for index in range(partitions):
        low = min(index * slice_width, time_card - 1)
        high = min(low + slice_width, time_card)
        keywords = rng.choices(
            range(n_keywords), weights=weights, k=records_per_partition
        )
        batch = []
        for keyword in keywords:
            popularity = 1.0 / math.sqrt(keyword + 1)
            pages = min(
                CLICK_CARDINALITY - 1,
                int(rng.expovariate(1.0 / (2 + 8 * popularity))),
            )
            ads = min(
                CLICK_CARDINALITY - 1,
                int(rng.expovariate(1.0 / (1 + 4 * popularity))),
            )
            batch.append((keyword, pages, ads, rng.randrange(low, high)))
        yield batch
