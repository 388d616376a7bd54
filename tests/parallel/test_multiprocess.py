"""Tests for the process-parallel backend."""

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce import ClusterConfig, SimulatedCluster
from repro.parallel import ParallelEvaluator
from repro.parallel.cancel import CancellationToken, DeadlineExceededError
from repro.parallel.multiprocess import (
    MultiprocessEvaluator,
    MultiprocessReport,
)
from repro.query.builder import WorkflowBuilder

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def evaluator():
    with MultiprocessEvaluator(processes=2) as evaluator:
        yield evaluator


class TestMultiprocess:
    def test_weblog_matches_oracle(self, evaluator, weblog):
        _schema, workflow, records = weblog
        result, report = evaluator.evaluate(workflow, records)
        assert result == evaluate_centralized(workflow, records)
        assert isinstance(report, MultiprocessReport)
        assert report.processes == 2
        assert report.blocks > 1
        # The overlapping key replicated some records.
        assert report.replicated_records >= len(records)

    def test_tiny_workflow(self, evaluator, tiny_workflow, tiny_records):
        result, _report = evaluator.evaluate(tiny_workflow, tiny_records)
        assert result == evaluate_centralized(tiny_workflow, tiny_records)

    def test_multi_component(self, evaluator, tiny_schema, tiny_records):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("a", over={"x": "value"}, field="v", aggregate="sum")
        builder.basic("b", over={"t": "tick"}, field="v", aggregate="count")
        workflow = builder.build()
        result, report = evaluator.evaluate(workflow, tiny_records)
        assert result == evaluate_centralized(workflow, tiny_records)
        assert report.replicated_records == 2 * len(tiny_records)

    def test_partition_count_override(self, evaluator, tiny_workflow,
                                      tiny_records):
        result, report = evaluator.evaluate(
            tiny_workflow, tiny_records, num_partitions=3
        )
        assert result == evaluate_centralized(tiny_workflow, tiny_records)
        assert report.partitions == 3

    def test_parameterized_aggregate_via_factory(self, tiny_schema,
                                                 tiny_records,
                                                 tiny_workflow):
        """The factory list, not fork inheritance, gives workers the
        aggregate: the pool starts before the driver registers it."""
        from repro.query.functions import quantile_function

        with MultiprocessEvaluator(
            processes=2,
            function_factories=[
                ("repro.query.functions.quantile_function", (0.37,)),
            ],
        ) as evaluator:
            evaluator.evaluate(tiny_workflow, tiny_records)  # start the pool
            builder = WorkflowBuilder(tiny_schema)
            builder.basic(
                "q37", over={"x": "four"}, field="v",
                aggregate=quantile_function(0.37),
            )
            workflow = builder.build()
            result, report = evaluator.evaluate(workflow, tiny_records)
        assert result == evaluate_centralized(workflow, tiny_records)
        summary = report.fault_summary()
        assert not summary["degraded"]
        assert summary["retries"] == 0


class TestComponentOrderRobustness:
    def test_declaration_order_permuted_vs_topological(self, tiny_schema,
                                                       tiny_records):
        """Workers rebuild the workflow in topological order; component
        pairing must survive the permutation."""
        from repro.query.builder import WorkflowBuilder

        builder = WorkflowBuilder(tiny_schema)
        # Declare the composite FIRST so the driver's measure order
        # differs from the serialized topological order.
        (
            builder.composite("rolled", over={"x": "four"})
            .from_children("fine", aggregate="sum")
        )
        builder.basic("other", over={"t": "tick"}, field="v",
                      aggregate="count")
        builder.basic("fine", over={"x": "value"}, field="v",
                      aggregate="sum")
        workflow = builder.build()
        evaluator = MultiprocessEvaluator(processes=2)
        result, _report = evaluator.evaluate(workflow, tiny_records)
        assert result == evaluate_centralized(workflow, tiny_records)


def child_pids() -> set:
    """Pids of this process's live children (pool workers among them)."""
    return {child.pid for child in multiprocessing.active_children()}


def rolled_sum(schema, base: str, rolled: str):
    """A basic sum rolled up by a composite; names are the only knob."""
    builder = WorkflowBuilder(schema)
    builder.basic(base, over={"x": "value", "t": "tick"}, field="v",
                  aggregate="sum")
    (
        builder.composite(rolled, over={"x": "four", "t": "span"})
        .from_children(base, aggregate="sum")
    )
    return builder.build()


FAST = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.0)

#: Fault -> (fault plan, retry policy, the report counter it moves).
RECOVERIES = {
    "kill": (
        FaultPlan(seed=2, kill_attempts=((0, 0),)), None, "pool_rebuilds",
    ),
    "timeout": (
        FaultPlan(seed=5, straggler_probability=1.0, straggler_sleep=0.3),
        RetryPolicy(max_attempts=2, speculation=False,
                    straggler_timeout=30.0, task_timeout=0.1, **FAST),
        "timeouts",
    ),
    # Seed 4 slows task 0's first attempt only, so its backup wins
    # while the first attempt still sleeps.
    "speculative-win": (
        FaultPlan(seed=4, straggler_probability=0.5, straggler_sleep=0.6),
        RetryPolicy(straggler_timeout=0.15, **FAST),
        "speculative_wins",
    ),
    # A worker killed between evaluations breaks the kept pool.
    "idle-kill": (None, None, "pool_rebuilds"),
}


class TestPoolLifetime:
    def test_evaluations_reuse_one_pool(self, tiny_schema, tiny_workflow,
                                        tiny_records, weblog):
        _schema, weblog_workflow, weblog_records = weblog
        before = child_pids()
        with MultiprocessEvaluator(processes=2) as evaluator:
            workers = None
            for workflow, records in (
                (tiny_workflow, tiny_records),
                (weblog_workflow, weblog_records),
                (rolled_sum(tiny_schema, "base", "rolled"),
                 tiny_records),
                (tiny_workflow, tiny_records),
            ):
                result, _report = evaluator.evaluate(workflow, records)
                assert result == evaluate_centralized(workflow, records)
                started = child_pids() - before
                if workers is None:
                    workers = started
                assert started == workers
            assert len(workers) == 2

    def test_one_shape_two_names(self, tiny_schema, tiny_records):
        first = rolled_sum(tiny_schema, "base", "rolled")
        second = rolled_sum(tiny_schema, "fine", "coarse")
        assert first.shape == second.shape
        with MultiprocessEvaluator(processes=2) as evaluator:
            for workflow in (first, second, first):
                result, _report = evaluator.evaluate(workflow, tiny_records)
                assert set(result) == set(workflow.names)
                assert result == evaluate_centralized(
                    workflow, tiny_records
                )

    @pytest.mark.parametrize("fault", sorted(RECOVERIES) + ["cancel"])
    def test_next_evaluation_after_recovery(self, fault, tiny_workflow,
                                            tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        before = child_pids()
        with MultiprocessEvaluator(
            processes=2,
            retry_policy=RetryPolicy(straggler_timeout=30.0, **FAST),
        ) as evaluator:
            result, _report = evaluator.evaluate(
                tiny_workflow, tiny_records, num_partitions=2
            )
            assert result == oracle
            clean = child_pids() - before
            if fault == "cancel":
                evaluator.fault_plan = FaultPlan(
                    seed=5, straggler_probability=1.0, straggler_sleep=0.5
                )
                cancel = CancellationToken()
                threading.Timer(0.2, cancel.cancel).start()
                with pytest.raises(DeadlineExceededError):
                    evaluator.evaluate(
                        tiny_workflow, tiny_records, num_partitions=2,
                        cancel=cancel,
                    )
            else:
                plan, policy, moved = RECOVERIES[fault]
                evaluator.fault_plan = plan
                evaluator.retry_policy = policy or evaluator.retry_policy
                if fault == "idle-kill":
                    victim = min(clean)
                    os.kill(victim, signal.SIGKILL)
                    deadline = time.monotonic() + 10.0
                    while victim in child_pids():
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                result, report = evaluator.evaluate(
                    tiny_workflow, tiny_records, num_partitions=2
                )
                assert result == oracle
                assert getattr(report, moved) >= 1
            evaluator.fault_plan = None
            result, _report = evaluator.evaluate(
                tiny_workflow, tiny_records, num_partitions=2
            )
            assert result == oracle
            fresh = child_pids() - before
            assert fresh and not fresh & clean

    def test_close_and_with_stop_every_worker(self, tiny_workflow,
                                              tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        before = child_pids()
        evaluator = MultiprocessEvaluator(processes=2)
        assert evaluator.evaluate(tiny_workflow, tiny_records)[0] == oracle
        assert child_pids() - before
        evaluator.close()
        assert child_pids() - before == set()
        # A closed evaluator starts a new pool when used again.
        with evaluator:
            assert evaluator.evaluate(
                tiny_workflow, tiny_records
            )[0] == oracle
            assert child_pids() - before
        assert child_pids() - before == set()

    def test_collection_closes_the_pool_without_waiting(
        self, tiny_workflow, tiny_records
    ):
        """Collection may run in any thread, the pool's own among them;
        joining the pool from there can deadlock, so it must not wait."""
        evaluator = MultiprocessEvaluator(processes=2)
        evaluator.evaluate(tiny_workflow, tiny_records)
        executor = evaluator._pool.executor
        shutdown = executor.shutdown
        waits = []

        def recording(wait=True, *, cancel_futures=False):
            waits.append(wait)
            shutdown(wait=wait, cancel_futures=cancel_futures)

        executor.shutdown = recording
        del evaluator
        gc.collect()
        assert waits == [False]
        shutdown(wait=True)  # join here, from the test's own thread

    def test_exit_without_close_leaves_no_child(self):
        script = textwrap.dedent("""
            import os
            from repro.local.sortscan import evaluate_centralized
            from repro.parallel.multiprocess import MultiprocessEvaluator
            from repro.workload import (
                generate_sessions, weblog_query, weblog_schema,
            )

            schema = weblog_schema(days=1)
            workflow = weblog_query(schema)
            records = generate_sessions(schema, 400, seed=3)
            evaluator = MultiprocessEvaluator(processes=2)
            result, report = evaluator.evaluate(workflow, records)
            assert result == evaluate_centralized(workflow, records)
            me = str(os.getpid())
            for entry in os.listdir("/proc"):
                if entry.isdigit():
                    try:
                        with open(f"/proc/{entry}/stat") as stream:
                            fields = stream.read().rsplit(")", 1)[1].split()
                    except OSError:
                        continue
                    if fields[1] == me:
                        print(entry)
        """)
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to list child processes")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        children = {int(line) for line in done.stdout.split()}
        assert len(children) >= 2  # the pool's workers at least

        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as stream:
                    state = stream.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                return False
            return state != "Z"

        deadline = time.monotonic() + 10.0
        while any(map(running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if running(pid)]


class TestPickledSchema:
    def test_schema_pickles_after_a_columnar_run(self, tiny_schema,
                                                 tiny_workflow,
                                                 tiny_records):
        ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=4))
        ).evaluate(tiny_workflow, tiny_records)
        hierarchy = tiny_schema.attributes[0].hierarchy
        assert hierarchy.__dict__.get("_array_maps")
        copy = pickle.loads(pickle.dumps(tiny_schema))
        assert copy.attribute_names == tiny_schema.attribute_names
        column = np.arange(16, dtype=np.int64)
        copied = copy.attributes[0].hierarchy
        assert list(copied.map_array("value", "four")(column)) == list(
            hierarchy.map_array("value", "four")(column)
        )
