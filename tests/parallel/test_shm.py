"""Shared-memory shuffle: zero-copy round trips and guaranteed cleanup.

The shm transport is pure plumbing: whatever travels through a segment
must come back bit-identical to centralized evaluation, and every
segment must be unlinked by the time an evaluation returns -- success,
failure, or chaos.  ``leaked_segments()`` scans ``/dev/shm`` for this
repo's prefix, so a leak anywhere fails loudly here.
"""

import threading

import numpy as np
import pytest

from repro.cube.batches import RecordBatch
from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.parallel import shm as shm_module
from repro.parallel.cancel import CancellationToken, DeadlineExceededError
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    leaked_segments,
    shm_available,
)
from repro.workload import all_queries, generate_skewed, paper_schema

from tests.helpers import assert_results_match

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True)
def no_leaks_before_or_after():
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class TestSegmentRegistry:
    def test_create_unlink_all_twice(self):
        registry = SegmentRegistry()
        segment = registry.create(128)
        name = segment.name
        segment.close()
        assert name in leaked_segments()
        registry.unlink_all()
        assert leaked_segments() == []
        # Idempotent: unlinking all again is a no-op.
        registry.unlink_all()

    def test_unlink_all_clears_everything(self):
        registry = SegmentRegistry()
        for _ in range(3):
            registry.create(64).close()
        assert len(leaked_segments()) == 3
        assert registry.created_bytes > 0
        registry.unlink_all()
        assert leaked_segments() == []


def _bucket_fixture(schema, records):
    batch = RecordBatch.from_records(schema, records)
    assert batch is not None
    rows = np.arange(len(batch), dtype=np.int64)
    blocks = [((0, 0), rows[: len(batch) // 2]), ((0, 1), rows)]
    row_maps = np.concatenate([rows[: len(batch) // 2], rows])
    return batch, blocks, row_maps


class TestShmBucketRoundTrip:
    def test_int_plane_round_trip(self, tiny_schema, tiny_records):
        batch, blocks, row_maps = _bucket_fixture(
            tiny_schema, tiny_records
        )
        registry = SegmentRegistry()
        try:
            bucket = ShmBucket.build(registry, batch, blocks, row_maps)
            view = bucket.attach()
            # Compare inside a frame so every derived view is dead
            # before close() -- the same discipline the worker follows.
            self._assert_round_trip(view, tiny_schema, batch, blocks)
            view.close()
        finally:
            registry.unlink_all()

    @staticmethod
    def _assert_round_trip(view, schema, batch, blocks):
        rebuilt = view.batch(schema)
        assert np.array_equal(rebuilt.matrix, batch.matrix)
        attached = view.blocks()
        assert [key for key, _rows in attached] == [
            key for key, _rows in blocks
        ]
        for (_k, want), (_k2, got) in zip(blocks, attached):
            assert np.array_equal(want, got)

    def test_typed_columns_round_trip(self, tiny_schema):
        records = [
            (1, "red", 2.5),
            (2, None, -1.0),
            (3, "blue", 0.0),
            (4, "red", 9.25),
        ]
        from repro.cube.domains import UniformHierarchy
        from repro.cube.records import Attribute, Schema

        x = UniformHierarchy("x", {"value": 1}, base_cardinality=8)
        schema = Schema([Attribute("x", x)], facts=["color", "v"])
        batch = RecordBatch.from_records(schema, records)
        assert batch is not None and batch.matrix is None
        rows = np.arange(len(batch), dtype=np.int64)
        registry = SegmentRegistry()
        try:
            bucket = ShmBucket.build(
                registry, batch, [((0,), rows)], rows
            )
            view = bucket.attach()
            rebuilt = view.batch(schema)
            assert rebuilt.to_records() == records
            del rebuilt
            view.close()
        finally:
            registry.unlink_all()


    def test_bench_probe_round_trip(self, tiny_schema, tiny_records):
        """What the benchmark's shm probe calls: ``build`` with one
        block over the whole batch, ``attach``, the view's ``batch``,
        ``blocks`` and ``close``, and the handle's ``nbytes``."""
        batch = RecordBatch.from_records(tiny_schema, tiny_records)
        rows = np.arange(len(batch), dtype=np.int64)
        registry = SegmentRegistry()
        try:
            bucket = ShmBucket.build(registry, batch, [((0, 0), rows)], rows)
            view = bucket.attach()
            self._assert_round_trip(
                view, tiny_schema, batch, [((0, 0), rows)]
            )
            view.close()
        finally:
            registry.unlink_all()
        assert bucket.nbytes == registry.created_bytes > batch.matrix.nbytes

    def test_typed_buckets_share_one_segment(self):
        """Strings, nulls and floats: the batch is written once, and
        every bucket's rows index into it."""
        from repro.cube.domains import UniformHierarchy
        from repro.cube.records import Attribute, Schema

        records = [
            (index % 8, (None, "red", "blue")[index % 3], 0.25 * index - 1)
            for index in range(12)
        ]
        x = UniformHierarchy("x", {"value": 1}, base_cardinality=8)
        schema = Schema([Attribute("x", x)], facts=["color", "v"])
        batch = RecordBatch.from_records(schema, records)
        assert batch is not None and batch.matrix is None
        shares = [
            (np.array([[0, 1], [0, 4]]), np.array([2, 1]),
             np.array([1, 9, 4])),
            (np.array([[0, 3]]), np.array([3]), np.array([3, 11, 0])),
        ]
        registry = SegmentRegistry()
        try:
            buckets = ShmBucket.scatter(registry, batch, shares)
            assert len({bucket.segment for bucket in buckets}) == 1
            assert len(leaked_segments(registry.prefix)) == 1
            for bucket, (keys, counts, rows) in zip(buckets, shares):
                view = bucket.attach()
                self._assert_typed_view(view, schema, records, keys, counts,
                                        rows)
                view.close()
        finally:
            registry.unlink_all()

    @staticmethod
    def _assert_typed_view(view, schema, records, keys, counts, rows):
        assert view.batch(schema).to_records() == records
        got_keys, got_counts, got_rows = view.block_arrays()
        assert np.array_equal(got_keys, keys)
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got_rows, rows)


class TestOneSegmentPerEvaluation:
    SCHEMA = paper_schema(days=3, temporal_base="minute")

    def test_one_segment_one_bucket_per_worker(self, monkeypatch):
        workflow = all_queries(self.SCHEMA)["Q1"]
        records = generate_skewed(self.SCHEMA, 400, seed=3)
        created = []
        real = SegmentRegistry.create

        def counting(registry, nbytes):
            created.append(nbytes)
            return real(registry, nbytes)

        monkeypatch.setattr(SegmentRegistry, "create", counting)
        with MultiprocessEvaluator(processes=2) as evaluator:
            result, report = evaluator.evaluate(workflow, records)
        assert result == evaluate_centralized(workflow, records)
        assert report.transport == "shm"
        assert report.partitions == report.tasks == 2
        assert created == [report.shm_bytes]

    def test_typed_batch_travels_over_shm(self, tiny_schema, tiny_records):
        """Float facts: a routable typed batch, written as columns."""
        from repro.query.builder import WorkflowBuilder

        records = [
            (x, t, 0.1 * (i % 13) - 0.35)
            for i, (x, t, _v) in enumerate(tiny_records)
        ]
        builder = WorkflowBuilder(tiny_schema)
        builder.basic(
            "base", over={"x": "value", "t": "tick"}, field="v",
            aggregate="sum",
        )
        builder.composite(
            "trailing", over={"x": "value", "t": "tick"}
        ).window("base", attribute="t", low=-3, high=0, aggregate="avg")
        workflow = builder.build()
        assert RecordBatch.from_records(tiny_schema, records).matrix is None
        with MultiprocessEvaluator(processes=2) as evaluator:
            result, report = evaluator.evaluate(workflow, records)
        assert report.transport == "shm"
        oracle = evaluate_centralized(workflow, records)
        assert_results_match(
            result, {name: table.values for name, table in oracle.items()}
        )

    @pytest.mark.parametrize("ending", ["clean", "kill", "cancel", "degrade"])
    def test_no_segment_outlives_the_evaluation(
        self, tiny_workflow, tiny_records, ending
    ):
        fast = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.0)
        plan, policy = {
            "clean": (None, RetryPolicy(**fast)),
            "kill": (
                FaultPlan(seed=2, kill_attempts=((0, 0),)),
                RetryPolicy(**fast),
            ),
            "cancel": (
                FaultPlan(
                    seed=5, straggler_probability=1.0, straggler_sleep=0.5
                ),
                RetryPolicy(straggler_timeout=30.0, **fast),
            ),
            "degrade": (
                FaultPlan(seed=1, task_failure_probability=1.0),
                RetryPolicy(max_attempts=2, **fast),
            ),
        }[ending]
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        with MultiprocessEvaluator(
            processes=2, fault_plan=plan, retry_policy=policy
        ) as evaluator:
            if ending == "cancel":
                cancel = CancellationToken()
                threading.Timer(0.2, cancel.cancel).start()
                with pytest.raises(DeadlineExceededError):
                    evaluator.evaluate(
                        tiny_workflow, tiny_records, cancel=cancel
                    )
            else:
                result, report = evaluator.evaluate(
                    tiny_workflow, tiny_records
                )
                assert result == oracle
                assert report.transport == "shm"
                assert report.pool_rebuilds == (ending == "kill")
                assert report.degraded == (ending == "degrade")
            assert leaked_segments() == []


class TestTransportSelection:
    @pytest.fixture
    def setup(self, tiny_workflow, tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        return tiny_workflow, tiny_records, oracle

    def test_shm_matches_oracle(self, setup):
        workflow, records, oracle = setup
        result, report = MultiprocessEvaluator(processes=2).evaluate(
            workflow, records, num_partitions=4
        )
        assert result == oracle
        assert report.transport == "shm"
        assert report.shm_bytes > 0
        assert report.transport_bytes_per_second > 0

    def test_probe_runs_once_per_process(self, setup, monkeypatch):
        workflow, records, _oracle = setup
        probes = []
        real = shm_module.shared_memory.SharedMemory

        def counting(*args, **kwargs):
            # Registry segments are named; only the probe is anonymous.
            if kwargs.get("create") and "name" not in kwargs:
                probes.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", counting
        )
        shm_available.cache_clear()
        evaluator = MultiprocessEvaluator(processes=2)
        for _ in range(2):
            _result, report = evaluator.evaluate(
                workflow, records, num_partitions=4
            )
            assert report.transport == "shm"
        assert len(probes) == 1


@pytest.mark.faults
class TestShmUnderChaos:
    def test_chaos_leaves_no_segments(self, tiny_workflow, tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        for seed in (1, 2):
            evaluator = MultiprocessEvaluator(
                processes=2,
                fault_plan=FaultPlan(
                    worker_kill_probability=0.15,
                    task_failure_probability=0.2,
                    seed=seed,
                ),
                retry_policy=RetryPolicy(max_attempts=6, backoff_base=0.0),
            )
            result, report = evaluator.evaluate(
                tiny_workflow, tiny_records, num_partitions=4
            )
            assert result == oracle, f"chaos seed {seed}"
            assert report.transport == "shm"
            assert leaked_segments() == [], f"chaos seed {seed}"
