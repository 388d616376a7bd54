"""Tests for the metric registry and its streaming instruments.

The instrument tests run against an injected fake clock, so rates,
window eviction, and snapshot sequencing are exactly reproducible; the
evaluator tests check what one job records into the registry.
"""

import dataclasses
import math

import pytest

from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.mapreduce.counters import JobCounters
from repro.obs.exposition import prometheus_text
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    RateMeter,
    ResourceSample,
    StreamingHistogram,
    TelemetryRegistry,
    WindowedGauge,
    WorkerDelta,
    sample_resources,
)
from repro.parallel.executor import ParallelEvaluator
from repro.workload import all_queries, generate_skewed, paper_schema

from tests.helpers import assert_valid_exposition


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestStreamingHistogram:
    def test_exact_percentiles_under_limit(self):
        histogram = StreamingHistogram("t")
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            histogram.observe(value)
        assert histogram.exact
        assert histogram.percentile(50) == 3.0
        assert histogram.percentile(99) == 100.0
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(22.0)

    def test_approximate_percentiles_bounded_error(self):
        histogram = StreamingHistogram("t", exact_limit=16)
        for value in range(1, 1000):
            histogram.observe(float(value))
        assert not histogram.exact
        # Bucketed estimate: relative error is bounded by growth - 1.
        p50 = histogram.percentile(50)
        assert abs(p50 - 500.0) / 500.0 < histogram.growth - 1.0 + 0.05
        assert histogram.percentile(0) >= 1.0
        assert histogram.percentile(100) <= 999.0 * histogram.growth

    def test_nonpositive_values_land_in_underflow(self):
        histogram = StreamingHistogram("t", exact_limit=1)
        histogram.observe(0.0)
        histogram.observe(-5.0)
        histogram.observe(10.0)
        assert histogram.count == 3
        assert histogram.min == -5.0
        assert histogram.percentile(1) <= 0.0

    def test_merge_matches_union(self):
        left = StreamingHistogram("t", exact_limit=4)
        right = StreamingHistogram("t", exact_limit=4)
        union = StreamingHistogram("t", exact_limit=4)
        for value in range(1, 50):
            (left if value % 2 else right).observe(float(value))
            union.observe(float(value))
        left.merge(right)
        assert left.count == union.count
        assert left.min == union.min
        assert left.max == union.max
        for q in (10, 50, 90, 99):
            assert left.percentile(q) == pytest.approx(
                union.percentile(q), rel=histogram_slack(union)
            )

    def test_merge_growth_mismatch_rejected(self):
        left = StreamingHistogram("t", growth=1.1)
        right = StreamingHistogram("t", growth=1.2)
        with pytest.raises(ValueError, match="bucket geometry"):
            left.merge(right)

    def test_roundtrip_preserves_state(self):
        histogram = StreamingHistogram("t", exact_limit=8)
        for value in range(1, 100):
            histogram.observe(float(value))
        rebuilt = StreamingHistogram.from_dict("t", histogram.to_dict())
        assert rebuilt.count == histogram.count
        assert rebuilt.percentile(95) == histogram.percentile(95)
        assert rebuilt.summary() == histogram.summary()

    def test_empty(self):
        histogram = StreamingHistogram("t")
        assert histogram.percentile(50) == 0.0
        assert histogram.mean == 0.0
        assert histogram.summary()["count"] == 0

    def test_empty_summary(self):
        assert StreamingHistogram("empty").summary() == {"count": 0}
        assert StreamingHistogram("empty").percentile(50) == 0.0
        assert StreamingHistogram("empty").mean == 0.0

    def test_summary_statistics(self):
        histogram = StreamingHistogram("loads")
        for value in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        summary = histogram.summary()
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 3.0  # nearest-rank on sorted [1,2,3,4]

    def test_percentile_bounds(self):
        histogram = StreamingHistogram("t")
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="outside"):
            histogram.percentile(101)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 1.0

    def test_exact_flag_flips_past_limit(self):
        histogram = StreamingHistogram("t", exact_limit=16)
        for value in range(16):
            histogram.observe(float(value))
        assert histogram.summary()["exact"] is True
        histogram.observe(16.0)
        assert histogram.summary()["exact"] is False

    def test_extremes_and_mean_stay_exact_past_limit(self):
        histogram = StreamingHistogram("t", exact_limit=8)
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["min"] == 1.0
        assert summary["max"] == 1000.0
        assert summary["mean"] == sum(values) / len(values)
        assert summary["count"] == 1000

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError, match="growth"):
            StreamingHistogram("t", growth=1.0)

    def test_memory_is_bounded(self):
        histogram = StreamingHistogram("t", exact_limit=32)
        for value in range(100_000):
            histogram.observe(float(value % 977) + 1.0)
        # Past the exact limit only fixed-width buckets remain.
        assert histogram._samples is None
        assert len(histogram._buckets) <= (
            histogram._max_index - histogram._min_index + 2
        )

    def test_count_stays_exact_with_bounded_memory(self):
        histogram = StreamingHistogram("loads", exact_limit=64)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram._samples is None
        assert len(histogram._buckets) <= (
            histogram._max_index - histogram._min_index + 2
        )
        assert histogram.count == 10_000  # exact, from the running total

    def test_approximate_median_is_representative(self):
        histogram = StreamingHistogram("loads", exact_limit=256)
        for value in range(1, 10_001):
            histogram.observe(float(value))
        assert not histogram.exact
        p50 = histogram.percentile(50)
        assert 3500.0 <= p50 <= 6500.0  # uniform input, bucketed median


def histogram_slack(histogram: StreamingHistogram) -> float:
    return (histogram.growth - 1.0) * 2


class TestRateMeter:
    def test_constant_rate_converges(self):
        clock = FakeClock()
        meter = RateMeter("rows", tau=2.0, clock=clock)
        for _ in range(100):
            clock.advance(0.1)
            meter.mark(10)  # 100 events/second
        assert meter.rate() == pytest.approx(100.0, rel=0.05)

    def test_decays_to_zero_without_marks(self):
        clock = FakeClock()
        meter = RateMeter("rows", tau=1.0, clock=clock)
        clock.advance(1.0)
        meter.mark(100)
        clock.advance(0.5)
        meter.mark(100)
        busy = meter.rate()
        clock.advance(30.0)
        assert meter.rate() < busy * 1e-6

    def test_same_tick_marks_accumulate(self):
        clock = FakeClock()
        meter = RateMeter("rows", tau=1.0, clock=clock)
        meter.mark(5)
        meter.mark(5)  # same instant: must not divide by zero
        clock.advance(1.0)
        meter.mark(10)
        assert meter.count == 20
        assert meter.rate() > 0.0

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            RateMeter("rows", tau=0.0)


class TestWindowedGauge:
    def test_last_write_wins(self):
        gauge = WindowedGauge("load", clock=FakeClock())
        assert gauge.value is None
        gauge.set(3.0)
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_window_eviction(self):
        clock = FakeClock()
        gauge = WindowedGauge("load", window=10.0, clock=clock)
        gauge.set(1.0)
        clock.advance(5.0)
        gauge.set(9.0)
        clock.advance(6.0)  # first sample now out of window
        gauge.set(5.0)
        stats = gauge.stats()
        assert stats["last"] == 5.0
        assert stats["window_min"] == 5.0
        assert stats["window_max"] == 9.0

    def test_sample_cap(self):
        clock = FakeClock()
        gauge = WindowedGauge(
            "load", window=1e9, max_samples=8, clock=clock
        )
        for value in range(100):
            clock.advance(1.0)
            gauge.set(float(value))
        assert len(gauge._samples) == 8
        assert gauge.stats()["window_min"] == 92.0


class TestResourceSampling:
    def test_sample_is_plausible(self):
        sample = sample_resources()
        assert sample.pid > 0
        assert sample.cpu_seconds > 0.0
        assert sample.rss_bytes > 1024 * 1024  # a live CPython process
        assert sample.gc_collections >= 0

    def test_to_dict_roundtrips_through_worker_delta(self):
        sample = ResourceSample(
            pid=7, cpu_seconds=1.5, rss_bytes=1 << 20, gc_collections=3
        )
        delta = WorkerDelta(
            worker="w7", seq=1, counters={"tasks": 2},
            resources=sample.to_dict(),
        )
        rebuilt = WorkerDelta.from_dict(delta.to_dict())
        assert rebuilt.resources["cpu_seconds"] == 1.5
        assert rebuilt.counters == {"tasks": 2}

    def test_spans_ride_the_delta(self):
        span = {"name": "mp-task", "trace_id": "q1", "span_id": "w.3",
                "parent_id": "d.1", "wall_start": 1.0, "wall_end": 2.0}
        delta = WorkerDelta(worker="w7", seq=2, spans=[(3, span)])
        rebuilt = WorkerDelta.from_dict(delta.to_dict())
        assert rebuilt.spans == [(3, span)]
        # The wire form is JSON-safe (tuples become lists).
        import json
        assert json.loads(json.dumps(delta.to_dict()))["spans"] == [
            [3, span]]

    def test_spans_default_empty_for_old_deltas(self):
        rebuilt = WorkerDelta.from_dict(
            {"worker": "w7", "seq": 1, "counters": {"tasks": 1}})
        assert rebuilt.spans == []


class TestTelemetryRegistry:
    def test_snapshot_is_deterministic_under_fake_clock(self):
        def build():
            clock = FakeClock()
            registry = TelemetryRegistry(clock=clock)
            registry.phase("map", 0, 4)
            for block in range(4):
                clock.advance(0.25)
                registry.mark("map.rows", 100)
                registry.phase("map", block + 1, 4)
                registry.observe("task_seconds", 0.1 * (block + 1))
            registry.inc("job.completed")
            registry.set_gauge("response_time", 1.5)
            return registry.snapshot(final=True)

        assert build() == build()

    def test_snapshot_shape(self):
        registry = TelemetryRegistry(clock=FakeClock())
        registry.inc("a")
        snapshot = registry.snapshot()
        for key in ("ts", "seq", "final", "counters", "rates", "gauges",
                    "histograms", "progress", "workers",
                    "worker_counters"):
            assert key in snapshot
        assert snapshot["final"] is False
        assert snapshot["counters"] == {"a": 1}

    def test_snapshot_seq_increments(self):
        registry = TelemetryRegistry(clock=FakeClock())
        first = registry.snapshot()
        second = registry.snapshot()
        assert second["seq"] == first["seq"] + 1

    def test_merge_worker_dedupes_by_seq(self):
        registry = TelemetryRegistry(clock=FakeClock())
        flush1 = {
            "worker": "w1", "seq": 1,
            "counters": {"tasks": 1, "rows": 100}, "resources": {},
        }
        flush2 = {
            "worker": "w1", "seq": 2,
            "counters": {"tasks": 2, "rows": 180}, "resources": {},
        }
        assert registry.merge_worker(flush1)
        assert registry.merge_worker(flush2)
        # A redelivered (or late, reordered) older flush changes nothing:
        # counters are cumulative totals keyed by seq, not deltas.
        assert not registry.merge_worker(dict(flush1))
        totals = registry.worker_totals()
        assert totals["w1"]["counters"] == {"tasks": 2, "rows": 180}
        assert registry.aggregate_worker_counters() == {
            "tasks": 2, "rows": 180,
        }

    def test_merge_worker_sums_across_workers(self):
        registry = TelemetryRegistry(clock=FakeClock())
        registry.merge_worker({
            "worker": "w1", "seq": 3, "counters": {"tasks": 3},
            "resources": {},
        })
        registry.merge_worker({
            "worker": "w2", "seq": 5, "counters": {"tasks": 5},
            "resources": {},
        })
        assert registry.aggregate_worker_counters() == {"tasks": 8}
        assert sorted(registry.worker_totals()) == ["w1", "w2"]

    def test_task_finished_under_two_workers_counts_once(self):
        """A pool break can lose a finished task's result; the re-run
        finishes the task again under a new worker."""
        registry = TelemetryRegistry(clock=FakeClock())
        registry.merge_worker({
            "worker": "w1", "seq": 2, "counters": {"tasks": 2, "rows": 30},
            "resources": {},
            "tasks": {"e:0": {"tasks": 1, "rows": 10},
                      "e:1": {"tasks": 1, "rows": 20}},
        })
        registry.merge_worker({
            "worker": "w2", "seq": 2, "counters": {"tasks": 2, "rows": 60},
            "resources": {},
            "tasks": {"e:1": {"tasks": 1, "rows": 20},
                      "e:2": {"tasks": 1, "rows": 40}},
        })
        assert registry.aggregate_worker_counters() == {
            "tasks": 3, "rows": 70,
        }
        # Per worker, each keeps what it did.
        assert registry.worker_totals()["w2"]["counters"]["tasks"] == 2

    def test_merged_worker_histogram(self):
        registry = TelemetryRegistry(clock=FakeClock())
        left = StreamingHistogram("task_seconds")
        left.observe(1.0)
        right = StreamingHistogram("task_seconds")
        right.observe(3.0)
        registry.merge_worker({
            "worker": "w1", "seq": 1, "counters": {}, "resources": {},
            "histograms": {"task_seconds": left.to_dict()},
        })
        registry.merge_worker({
            "worker": "w2", "seq": 1, "counters": {}, "resources": {},
            "histograms": {"task_seconds": right.to_dict()},
        })
        merged = registry.merged_worker_histogram("task_seconds")
        assert merged.count == 2
        assert merged.min == 1.0
        assert merged.max == 3.0

    def test_attach_notifies_sink_on_every_change(self):
        events = []

        class Sink:
            def update(self, registry):
                events.append(registry)

        registry = TelemetryRegistry(clock=FakeClock())
        registry.attach(Sink())
        registry.inc("a")
        registry.mark("b")
        registry.phase("map", 1, 2)
        assert len(events) == 3
        assert all(event is registry for event in events)

    def test_get_or_create_is_stable(self):
        registry = TelemetryRegistry(clock=FakeClock())
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.rate("r") is registry.rate("r")

    def test_counter_increments(self):
        registry = TelemetryRegistry(clock=FakeClock())
        registry.inc("calls")
        registry.inc("calls", 4)
        assert registry.counters["calls"] == 5

    def test_convenience_recorders(self):
        registry = TelemetryRegistry(clock=FakeClock())
        registry.inc("jobs")
        registry.inc("jobs", 2)
        registry.set_gauge("load", 1.5)
        registry.observe("lat", 10.0)
        registry.observe("lat", 20.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["jobs"] == 3
        assert snapshot["gauges"]["load"]["last"] == 1.5
        assert snapshot["histograms"]["lat"]["count"] == 2

    def test_record_job_counters_covers_every_field(self):
        # Fill EVERY dataclass field with a distinct value so a field
        # silently skipped by the registry would be caught here.
        counters = JobCounters()
        for index, f in enumerate(dataclasses.fields(counters)):
            if f.name == "extra":
                counters.extra["stragglers"] = 99
            else:
                setattr(counters, f.name, index + 1)
        registry = TelemetryRegistry(clock=FakeClock())
        registry.record_job_counters(counters)

        for f in dataclasses.fields(counters):
            if f.name == "extra":
                assert registry.counters["job.extra.stragglers"] == 99
            else:
                value = getattr(counters, f.name)
                assert registry.counters[f"job.{f.name}"] == value

    def test_record_job_counters_accumulates(self):
        registry = TelemetryRegistry(clock=FakeClock())
        registry.record_job_counters(JobCounters(map_input_records=10))
        registry.record_job_counters(JobCounters(map_input_records=5))
        assert registry.counters["job.map_input_records"] == 15

    def test_record_job_counters_notifies_once(self):
        events = []

        class Sink:
            def update(self, registry):
                events.append(registry)

        registry = TelemetryRegistry(clock=FakeClock())
        registry.attach(Sink())
        registry.record_job_counters(JobCounters(map_input_records=10))
        assert len(events) == 1


class TestEvaluatorRecording:
    """What one :class:`ParallelEvaluator` run leaves in the registry."""

    @pytest.fixture(scope="class")
    def q1_run(self):
        schema = paper_schema(days=3, temporal_base="minute")
        records = generate_skewed(schema, 300, seed=7, skew_fraction=0.25)
        registry = TelemetryRegistry()
        evaluator = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4)), telemetry=registry
        )
        outcome = evaluator.evaluate(all_queries(schema)["Q1"], records)
        return registry, outcome

    def test_job_counters_land_under_job_prefix(self, q1_run):
        registry, outcome = q1_run
        counters = registry.snapshot()["counters"]
        job = outcome.job.counters
        for f in dataclasses.fields(job):
            if f.name == "extra":
                for key, count in job.extra.items():
                    assert counters[f"job.extra.{key}"] == count
            else:
                assert counters[f"job.{f.name}"] == getattr(job, f.name)
        assert counters["job.completed"] == 1

    def test_each_reducer_load_recorded_once(self, q1_run):
        registry, outcome = q1_run
        loads = registry.snapshot()["histograms"]["job.reducer_load"]
        assert loads["count"] == len(outcome.job.reducer_loads)
        assert loads["max"] == max(outcome.job.reducer_loads)

    def test_job_optimizer_and_calibration_gauges(self, q1_run):
        registry, outcome = q1_run
        gauges = registry.snapshot()["gauges"]
        assert gauges["job.response_time"]["last"] == (
            outcome.job.response_time)
        assert gauges["optimizer.predicted_max_load"]["last"] == (
            outcome.plan.predicted_max_load)
        for index in range(len(outcome.plan.subplans)):  # Q1: three
            assert f"optimizer.component{index}.blocks" in gauges
        calibration = outcome.calibration
        recorded = 0
        for name in ("max_load_error", "shipped_records_error",
                     "shuffle_bytes_error", "blocks_error"):
            value = getattr(calibration, name)
            if value is not None:
                assert gauges[f"calibration.{name}"]["last"] == value
                recorded += 1
        assert recorded

    def test_prometheus_exposition_is_valid(self, q1_run):
        registry, _outcome = q1_run
        assert_valid_exposition(prometheus_text(registry))


class TestNullTelemetry:
    def test_is_disabled_and_inert(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.inc("a")
        NULL_TELEMETRY.mark("b", 5)
        NULL_TELEMETRY.set_gauge("c", 1.0)
        NULL_TELEMETRY.observe("d", 2.0)
        NULL_TELEMETRY.phase("map", 1, 2)
        NULL_TELEMETRY.record_job_counters(JobCounters(map_tasks=1))
        NULL_TELEMETRY.attach(object())
        assert NULL_TELEMETRY.merge_worker({}) is False
        assert NULL_TELEMETRY.worker_totals() == {}
        assert NULL_TELEMETRY.snapshot() == {}

    def test_real_registry_reports_enabled(self):
        assert TelemetryRegistry(clock=FakeClock()).enabled
