"""Shared-memory shuffle: zero-copy round trips and guaranteed cleanup.

The shm transport is pure plumbing: whatever travels through a segment
must come back bit-identical to centralized evaluation, and every
segment must be unlinked by the time an evaluation returns -- success,
failure, or chaos.  ``leaked_segments()`` scans ``/dev/shm`` for this
repo's prefix, so a leak anywhere fails loudly here.
"""

import numpy as np
import pytest

from repro.cube.batches import RecordBatch
from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.parallel import shm as shm_module
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    leaked_segments,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True)
def no_leaks_before_or_after():
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class TestSegmentRegistry:
    def test_create_release_unlink(self):
        registry = SegmentRegistry()
        segment = registry.create(128)
        name = segment.name
        segment.close()
        assert name in leaked_segments()
        registry.release(name)
        assert leaked_segments() == []
        # Idempotent: releasing again (or unlinking all) is a no-op.
        registry.release(name)
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
