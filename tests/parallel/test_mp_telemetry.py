"""Cross-process telemetry through the multiprocess backend.

The hard guarantees: turning telemetry on never changes an answer
(bit-identical results under chaos included), and the worker->driver
channel never loses or double-counts a delta -- flushes carry
cumulative totals with a sequence number, so a worker killed mid-run
leaves only complete, deduplicable state behind.
"""

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.obs.exposition import prometheus_text
from repro.obs.manifest import RunManifest
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.top import render_frame
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.query import RATIO, WorkflowBuilder

from tests.helpers import assert_valid_exposition

pytestmark = pytest.mark.faults

FAST_BACKOFF = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.0,
                    straggler_timeout=30.0)

CHAOS = dict(seed=7, task_failure_probability=0.25)


def build_query(name: str, schema):
    """Q1..Q6: one workflow per relationship shape the engine supports."""
    builder = WorkflowBuilder(schema)
    if name == "q1":  # fine-grained basic
        builder.basic("m", over={"x": "value", "t": "tick"}, field="v",
                      aggregate="sum")
    elif name == "q2":  # coarse basic on the other hierarchy level
        builder.basic("m", over={"x": "four", "t": "span"}, field="v",
                      aggregate="count")
    elif name == "q3":  # rollup composite
        builder.basic("base", over={"x": "value", "t": "tick"}, field="v",
                      aggregate="sum")
        (
            builder.composite("m", over={"x": "four", "t": "span"})
            .from_children("base", aggregate="sum")
        )
    elif name == "q4":  # ratio of two self sources
        builder.basic("a", over={"x": "four", "t": "span"}, field="v",
                      aggregate="sum")
        builder.basic("b", over={"x": "four", "t": "span"}, field="v",
                      aggregate="count")
        (
            builder.composite("m", over={"x": "four", "t": "span"})
            .from_self("a")
            .from_self("b")
            .combine(RATIO)
        )
    elif name == "q5":  # trailing window
        builder.basic("base", over={"x": "value", "t": "tick"}, field="v",
                      aggregate="sum")
        (
            builder.composite("m", over={"x": "value", "t": "tick"})
            .window("base", attribute="t", low=-3, high=0, aggregate="avg")
        )
    elif name == "q6":  # two disjoint components in one workflow
        builder.basic("left", over={"x": "value"}, field="v",
                      aggregate="sum")
        builder.basic("right", over={"t": "tick"}, field="v",
                      aggregate="count")
    else:  # pragma: no cover - test bug
        raise AssertionError(name)
    return builder.build()


def chaos_evaluate(workflow, records, telemetry=None):
    evaluator = MultiprocessEvaluator(
        processes=2,
        fault_plan=FaultPlan(**CHAOS),
        retry_policy=RetryPolicy(max_attempts=6, **FAST_BACKOFF),
        telemetry=telemetry,
    )
    return evaluator.evaluate(workflow, records, num_partitions=4)


class TestChaosBitIdentity:
    @pytest.mark.parametrize("query", ["q1", "q2", "q3", "q4", "q5", "q6"])
    def test_telemetry_on_matches_telemetry_off(self, query, tiny_schema,
                                                tiny_records):
        workflow = build_query(query, tiny_schema)
        registry = TelemetryRegistry()
        with_telemetry, report_on = chaos_evaluate(
            workflow, tiny_records, telemetry=registry
        )
        without, report_off = chaos_evaluate(workflow, tiny_records)
        assert with_telemetry == without
        assert with_telemetry == evaluate_centralized(workflow, tiny_records)
        # The off run never opened the channel; the on run merged real
        # worker sections.
        assert report_off.workers == {}
        assert report_on.workers
        for section in report_on.workers.values():
            assert section["resources"]["cpu_seconds"] > 0.0
            assert section["resources"]["rss_bytes"] > 0


class TestWorkerChannel:
    def test_totals_account_for_every_task(self, tiny_schema, tiny_records):
        workflow = build_query("q3", tiny_schema)
        registry = TelemetryRegistry()
        _result, report = chaos_evaluate(
            workflow, tiny_records, telemetry=registry
        )
        totals = registry.aggregate_worker_counters()
        assert totals["tasks"] == report.tasks
        assert totals["rows"] > 0
        assert registry.snapshot()["progress"]["mp-tasks"] == [
            report.tasks, report.tasks,
        ]

    def test_killed_worker_neither_loses_nor_double_counts(
        self, tiny_schema, tiny_records
    ):
        # Attempt (0, 0) hard-kills its host process (os._exit). Kills
        # happen at task START, before the task's flush -- so every
        # flush that did reach the queue carries complete cumulative
        # totals, and seq-deduped merging reconstructs exactly the
        # surviving work: one counted completion per task.
        workflow = build_query("q1", tiny_schema)
        registry = TelemetryRegistry()
        evaluator = MultiprocessEvaluator(
            processes=2,
            fault_plan=FaultPlan(seed=2, kill_attempts=((0, 0),)),
            retry_policy=RetryPolicy(**FAST_BACKOFF),
            telemetry=registry,
        )
        result, report = evaluator.evaluate(
            workflow, tiny_records, num_partitions=4
        )
        assert result == evaluate_centralized(workflow, tiny_records)
        totals = registry.aggregate_worker_counters()
        seen = (
            f"totals={totals} tasks={report.tasks} "
            f"rebuilds={report.pool_rebuilds} "
            f"workers={registry.worker_totals()}"
        )
        assert report.pool_rebuilds >= 1, seen
        assert totals["tasks"] == report.tasks, seen

    def test_merge_is_deterministic_under_replay_order(self, tiny_schema,
                                                       tiny_records):
        workflow = build_query("q6", tiny_schema)
        registry = TelemetryRegistry()
        chaos_evaluate(workflow, tiny_records, telemetry=registry)
        flushes = [
            {"worker": worker, "seq": section["seq"],
             "counters": dict(section["counters"]),
             "resources": dict(section["resources"])}
            for worker, section in registry.worker_totals().items()
        ]
        forward = TelemetryRegistry()
        backward = TelemetryRegistry()
        for flush in flushes:
            forward.merge_worker(dict(flush))
            forward.merge_worker(dict(flush))  # duplicate delivery
        for flush in reversed(flushes):
            backward.merge_worker(dict(flush))
        assert forward.worker_totals() == backward.worker_totals()
        assert forward.worker_totals() == registry.worker_totals()


class TestReusedPool:
    """Two evaluations on one evaluator's pool: worker counters are
    scoped to their evaluation, so one shared registry sums each task
    once and a report counts only its own tasks."""

    @staticmethod
    def evaluate_twice(tiny_schema, tiny_records, registries):
        evaluator = MultiprocessEvaluator(processes=2)
        reports = []
        with evaluator:
            for query, registry in zip(("q3", "q6"), registries):
                evaluator.telemetry = registry
                workflow = build_query(query, tiny_schema)
                result, report = evaluator.evaluate(
                    workflow, tiny_records, num_partitions=4
                )
                assert result == evaluate_centralized(workflow, tiny_records)
                assert sum(
                    section["counters"]["tasks"]
                    for section in report.workers.values()
                ) == report.tasks
                reports.append(report)
        # Both evaluations ran on the one pool's workers.
        assert len({
            worker.split("@")[0]
            for report in reports for worker in report.workers
        }) <= evaluator.processes
        return reports

    def test_shared_registry_counts_each_task_once(self, tiny_schema,
                                                   tiny_records):
        registry = TelemetryRegistry()
        first, second = self.evaluate_twice(
            tiny_schema, tiny_records, (registry, registry)
        )
        assert not set(first.workers) & set(second.workers)
        totals = registry.aggregate_worker_counters()
        assert totals["tasks"] == first.tasks + second.tasks

    def test_fresh_registries_count_their_evaluation(self, tiny_schema,
                                                     tiny_records):
        registries = (TelemetryRegistry(), TelemetryRegistry())
        reports = self.evaluate_twice(tiny_schema, tiny_records, registries)
        for registry, report in zip(registries, reports):
            totals = registry.aggregate_worker_counters()
            assert totals["tasks"] == report.tasks
            assert registry.worker_totals() == report.workers


class TestExposure:
    @pytest.fixture(scope="class")
    def chaos_registry(self, tiny_schema):
        import random

        rng = random.Random(11)
        records = [
            (rng.randrange(16), rng.randrange(32), rng.randrange(1, 10))
            for _ in range(600)
        ]
        registry = TelemetryRegistry()
        workflow = build_query("q3", tiny_schema)
        _result, report = chaos_evaluate(workflow, records, registry)
        return registry, report

    def test_recovery_counters_match_the_report(self, chaos_registry):
        registry, report = chaos_registry
        counters = registry.counters
        for name in ("attempts", "retries", "timeouts", "pool_rebuilds",
                     "speculative_launched", "speculative_wins"):
            assert counters[f"mp.{name}"] == getattr(report, name), name
        assert counters.get("mp.failures", 0) == report.injected_failures
        assert report.injected_failures > 0  # the chaos plan did fire
        assert "mp.injected_failures" not in counters
        assert registry.gauges["mp.degraded"].value == float(report.degraded)
        assert registry.gauges["mp.shipped_bytes"].value == (
            report.shipped_bytes)

    def test_prometheus_snapshot_is_valid(self, chaos_registry):
        registry, _report = chaos_registry
        text = prometheus_text(registry)
        assert "# TYPE repro_mp_rows_total counter" in text
        assert "# TYPE repro_mp_task_seconds summary" in text
        assert 'repro_phase_done{phase="mp-tasks"}' in text
        assert 'repro_worker_cpu_seconds{worker="w' in text
        assert_valid_exposition(text)

    def test_top_renders_live_mp_frame(self, chaos_registry):
        registry, report = chaos_registry
        text = render_frame(registry.snapshot(final=True))
        assert "mp-tasks" in text
        assert "100.0%" in text
        assert "workers:" in text
        assert "mp.rows" in text
        assert str(report.tasks) in text

    def test_manifest_v4_roundtrips_worker_sections(self, chaos_registry,
                                                    tmp_path):
        registry, report = chaos_registry
        manifest = RunManifest.from_dict({
            "schema_version": 4,
            "query": "q3",
            "plan": "mp x2",
            "response_time": 0.1,
            "map_makespan": 0.05,
            "reduce_makespan": 0.05,
            "counters": {},
            "breakdown": {},
            "reducer_loads": [],
            "load_imbalance": 1.0,
            "workers": report.workers,
            "telemetry": registry.snapshot(final=True),
        })
        path = str(tmp_path / "mp.manifest.json")
        manifest.write(path)
        loaded = RunManifest.load(path)
        assert loaded.workers == report.workers
        summary = loaded.summary()
        assert f"workers: {len(report.workers)} processes" in summary
        assert "cpu" in summary and "MiB" in summary
