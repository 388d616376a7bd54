"""Cooperative cancellation: deadlines must stop work, not corrupt it."""

import pytest

from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.parallel import (
    CancellationToken,
    DeadlineExceededError,
    ParallelEvaluator,
)
from repro.workload import generate_sessions, weblog_query, weblog_schema


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestCancellationToken:
    def test_no_deadline_never_expires(self):
        token = CancellationToken()
        assert not token.expired
        assert token.remaining() is None
        token.check()  # must not raise

    def test_deadline_expiry_is_clock_driven(self):
        clock = FakeClock(now=10.0)
        token = CancellationToken(deadline=11.0, clock=clock)
        assert not token.expired
        assert token.remaining() == pytest.approx(1.0)
        clock.now = 11.5
        assert token.expired
        assert token.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_explicit_cancel_latches(self):
        token = CancellationToken()
        token.cancel(reason="drain")
        assert token.expired
        assert token.reason == "drain"
        with pytest.raises(DeadlineExceededError, match="drain"):
            token.check()

    def test_after_constructor(self):
        clock = FakeClock(now=100.0)
        token = CancellationToken.after(5.0, clock=clock)
        clock.now = 104.9
        assert not token.expired
        clock.now = 105.1
        assert token.expired

    def test_expiry_latches_even_if_clock_rewinds(self):
        clock = FakeClock(now=10.0)
        token = CancellationToken(deadline=11.0, clock=clock)
        clock.now = 12.0
        assert token.expired
        clock.now = 10.0
        assert token.expired  # once tripped, stays tripped


class TestEvaluatorCancellation:
    @pytest.fixture(scope="class")
    def workload(self):
        schema = weblog_schema(days=1)
        workflow = weblog_query(schema)
        records = generate_sessions(schema, 2000, seed=3)
        return workflow, records

    def test_pre_expired_token_aborts_before_any_work(self, workload):
        workflow, records = workload
        clock = FakeClock(now=5.0)
        token = CancellationToken(deadline=1.0, clock=clock)
        cluster = SimulatedCluster(ClusterConfig(machines=4))
        with pytest.raises(DeadlineExceededError):
            ParallelEvaluator(cluster).evaluate(
                workflow, records, cancel=token
            )

    def test_mid_run_expiry_unwinds_cleanly(self, workload):
        """A token tripping between tasks aborts the evaluation."""
        workflow, records = workload
        clock = FakeClock(now=0.0)
        token = CancellationToken(deadline=10.0, clock=clock)
        cluster = SimulatedCluster(ClusterConfig(machines=4))
        evaluator = ParallelEvaluator(cluster)

        calls = {"n": 0}
        original = CancellationToken.check

        def advancing_check(self_token):
            calls["n"] += 1
            if calls["n"] > 3:
                clock.now = 11.0
            return original(self_token)

        CancellationToken.check = advancing_check
        try:
            with pytest.raises(DeadlineExceededError):
                evaluator.evaluate(workflow, records, cancel=token)
        finally:
            CancellationToken.check = original
        assert calls["n"] > 3

    def test_unexpired_token_changes_nothing(self, workload):
        """With a generous deadline the result is bit-identical."""
        workflow, records = workload
        cluster = SimulatedCluster(ClusterConfig(machines=4))
        plain = ParallelEvaluator(cluster).evaluate(workflow, records)
        token = CancellationToken.after(3600.0)
        cancellable = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4))
        ).evaluate(workflow, records, cancel=token)
        assert cancellable.result == plain.result


class TestReduceTaskCancellation:
    """The deadline reaches each reduce task and component."""

    @staticmethod
    def expire_after_first_evaluation(monkeypatch, clock):
        """Records every block evaluation, columnar or scalar; the
        first one moves the clock past the deadline."""
        from repro.local.sortscan import BlockEvaluator
        from repro.local.vectorized import VectorizedBlockEvaluator

        calls = []
        for owner, method in (
            (BlockEvaluator, "evaluate"),
            (VectorizedBlockEvaluator, "_evaluate_matrix"),
        ):
            original = getattr(owner, method)

            def evaluate_then_expire(
                self, *args, _original=original, **kwargs
            ):
                calls.append(self)
                result = _original(self, *args, **kwargs)
                clock.now = 11.0
                return result

            monkeypatch.setattr(owner, method, evaluate_then_expire)
        return calls

    def test_expiry_after_first_reduce_task(self, monkeypatch, tiny_workflow):
        from repro.parallel import ExecutionConfig

        records = [(i % 16, i % 32, 1) for i in range(400)]
        clock = FakeClock(now=0.0)
        token = CancellationToken(deadline=10.0, clock=clock)
        calls = self.expire_after_first_evaluation(monkeypatch, clock)
        num_reducers = 4
        evaluator = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4)),
            ExecutionConfig(num_reducers=num_reducers),
        )
        with pytest.raises(DeadlineExceededError):
            evaluator.evaluate(tiny_workflow, records, cancel=token)
        assert 0 < len(calls) < num_reducers

    def test_expiry_between_components_of_one_task(
        self, monkeypatch, tiny_schema
    ):
        from repro.parallel import ExecutionConfig
        from repro.query import WorkflowBuilder

        builder = WorkflowBuilder(tiny_schema)
        builder.basic("a", over={"x": "value"}, field="v", aggregate="sum")
        builder.basic("b", over={"t": "tick"}, field="v", aggregate="count")
        workflow = builder.build()
        records = [(i % 16, i % 32, 1) for i in range(400)]
        clock = FakeClock(now=0.0)
        token = CancellationToken(deadline=10.0, clock=clock)
        calls = self.expire_after_first_evaluation(monkeypatch, clock)
        evaluator = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4)),
            ExecutionConfig(num_reducers=1),
        )
        with pytest.raises(DeadlineExceededError):
            evaluator.evaluate(workflow, records, cancel=token)
        # One reduce task, two components: the second never ran.
        assert len(calls) == 1
