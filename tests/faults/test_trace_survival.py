"""Traces survive chaos: retries stay under one causally-linked tree.

The multiprocess evaluator ships worker task spans over the same
at-least-once telemetry channel the fault-tolerant counters use, so a
killed worker or an injected failure must not fork, orphan, or
double-record the query's trace -- and the backoff the retry machinery
burned has to show up as attributable ``mp-retry`` overhead.
"""

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.obs.tracer import Tracer
from repro.obs.traceview import collect_trace, find_orphans
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.query.builder import WorkflowBuilder

pytestmark = pytest.mark.faults

FAST_BACKOFF = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.0,
                    straggler_timeout=30.0)


@pytest.fixture
def small_workflow(tiny_schema):
    builder = WorkflowBuilder(tiny_schema)
    builder.basic("total", over={"x": "four"}, field="v", aggregate="sum")
    return builder.build()


def _traced_run(small_workflow, tiny_records, fault_plan, retry_policy):
    tracer = Tracer()
    root = tracer.mint("q-chaos")
    evaluator = MultiprocessEvaluator(
        processes=2, fault_plan=fault_plan, retry_policy=retry_policy,
        tracer=tracer,
    )
    started = tracer.now()
    result, report = evaluator.evaluate(
        small_workflow, tiny_records, num_partitions=4, trace=root,
    )
    tracer.close(root, "q-chaos", started, tracer.now())
    # Every interval is recorded once, into the one tracer.
    assert len(tracer.find("mp-evaluate")) == 1
    assert len(tracer.find("mp-retry")) == report.retries
    return result, report, tracer.to_dicts()


class TestRetryTrace:
    def test_all_attempts_share_one_trace(
        self, small_workflow, tiny_records
    ):
        result, report, spans = _traced_run(
            small_workflow, tiny_records,
            FaultPlan(seed=1, fail_attempts=((0, 0),)),
            RetryPolicy(**FAST_BACKOFF),
        )
        assert result == evaluate_centralized(small_workflow, tiny_records)
        assert report.retries == 1

        assert {s["trace_id"] for s in spans} == {"q-chaos"}
        assert find_orphans(spans) == []
        tree = collect_trace(spans, "q-chaos")
        assert len(tree) == len(spans)

        tasks = [s for s in spans if s["name"] == "mp-task"]
        attempts_of_task0 = sorted(
            (s["attributes"]["attempt"], s["attributes"])
            for s in tasks if s["attributes"]["task"] == 0
        )
        # Both the failed attempt and its retry were recorded, in the
        # same trace, distinguishable by the error tag.
        assert [attempt for attempt, _ in attempts_of_task0] == [0, 1]
        assert "error" in attempts_of_task0[0][1]
        assert "rows" in attempts_of_task0[1][1]

    def test_retry_overhead_is_attributed(
        self, small_workflow, tiny_records
    ):
        _, report, spans = _traced_run(
            small_workflow, tiny_records,
            FaultPlan(seed=1, fail_attempts=((0, 0), (0, 1))),
            RetryPolicy(**FAST_BACKOFF),
        )
        retries = [s for s in spans if s["name"] == "mp-retry"]
        assert len(retries) == report.retries == 2
        assert report.retry_wall_seconds > 0.0
        # Each retry span's width is the backoff it cost; the widths
        # sum to the report's attributable retry overhead.
        widths = sum(s["wall_end"] - s["wall_start"] for s in retries)
        assert widths == pytest.approx(report.retry_wall_seconds)
        for span in retries:
            assert span["attributes"]["backoff"] > 0.0
            assert span["attributes"]["error"]

    def test_driver_span_summarizes_the_run(
        self, small_workflow, tiny_records
    ):
        _, report, spans = _traced_run(
            small_workflow, tiny_records,
            FaultPlan(seed=1, fail_attempts=((0, 0),)),
            RetryPolicy(**FAST_BACKOFF),
        )
        (evaluate,) = [s for s in spans if s["name"] == "mp-evaluate"]
        assert evaluate["attributes"]["retries"] == 1
        assert evaluate["attributes"]["degraded"] is False
        # Worker task spans hang off the evaluate span.
        tasks = [s for s in spans if s["name"] == "mp-task"]
        assert {s["parent_id"] for s in tasks} == {evaluate["span_id"]}


class TestWorkerDeathTrace:
    def test_killed_worker_does_not_orphan_the_trace(
        self, small_workflow, tiny_records
    ):
        # Attempt (0, 0) hard-kills its host with os._exit: that
        # attempt's span dies with the process (nothing flushed), but
        # the rebuilt pool's retry lands in the same trace and the
        # tree stays fully connected.
        result, report, spans = _traced_run(
            small_workflow, tiny_records,
            FaultPlan(seed=2, kill_attempts=((0, 0),)),
            RetryPolicy(**FAST_BACKOFF),
        )
        assert result == evaluate_centralized(small_workflow, tiny_records)
        assert report.pool_rebuilds >= 1
        assert not report.degraded

        assert {s["trace_id"] for s in spans} == {"q-chaos"}
        assert find_orphans(spans) == []
        tasks = [s for s in spans if s["name"] == "mp-task"]
        # The killed attempt left no span (nothing could flush), but
        # the re-run on the rebuilt pool did -- same trace, attempt
        # number continuing where the dead worker's left off.
        survivors = [s for s in tasks if s["attributes"]["task"] == 0
                     and "rows" in s["attributes"]]
        assert survivors
        assert all(s["attributes"]["attempt"] >= 1 for s in survivors)
        assert not any(s["attributes"]["attempt"] == 0 for s in tasks)


class TestDegradedTrace:
    def test_fallback_is_marked_on_the_driver_span(
        self, small_workflow, tiny_records
    ):
        result, report, spans = _traced_run(
            small_workflow, tiny_records,
            FaultPlan(seed=3, task_failure_probability=1.0),
            RetryPolicy(max_attempts=2, **FAST_BACKOFF),
        )
        assert result == evaluate_centralized(small_workflow, tiny_records)
        assert report.degraded
        (evaluate,) = [s for s in spans if s["name"] == "mp-evaluate"]
        assert evaluate["attributes"]["degraded"] is True
        assert find_orphans(spans) == []
