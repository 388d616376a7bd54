"""Tests for the MapReduce job engine."""

import pytest

from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.engine import (
    MapReduceJob,
    default_partitioner,
    stable_hash,
)
from repro.mapreduce.timing import ClusterConfig


def word_mapper(record):
    yield (record[0], 1)


def counting_reducer(key, values, ctx):
    ctx.charge_eval(len(values))
    yield (key, sum(values))


def sum_combiner(key, values):
    yield (key, sum(values))


@pytest.fixture
def cluster():
    cluster = SimulatedCluster(ClusterConfig(machines=6))
    words = [("the",), ("quick",), ("fox",), ("the",)] * 250
    cluster.write_file("words", words)
    return cluster


@pytest.fixture
def words(cluster):
    return cluster.dfs.open("words")


class TestExecution:
    def test_wordcount(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        result = job.run(words, cluster)
        assert sorted(result.outputs) == [
            ("fox", 250), ("quick", 250), ("the", 500),
        ]

    def test_multiple_emits_per_record(self, cluster, words):
        def fanout_mapper(record):
            yield (record[0], 1)
            yield (record[0] + "!", 1)

        job = MapReduceJob(fanout_mapper, counting_reducer, num_reducers=3)
        result = job.run(words, cluster)
        assert result.report.counters.replication_factor == pytest.approx(2.0)
        assert ("the!", 500) in result.outputs

    def test_combiner_preserves_output_and_cuts_shuffle(self, cluster, words):
        plain = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        combined = MapReduceJob(
            word_mapper, counting_reducer, num_reducers=3,
            combiner=sum_combiner,
        )
        a = plain.run(words, cluster)
        b = combined.run(words, cluster)
        assert sorted(a.outputs) == sorted(b.outputs)
        assert (
            b.report.counters.shuffle_bytes < a.report.counters.shuffle_bytes
        )
        assert b.report.counters.combine_input_records == 1000
        assert b.report.counters.combine_output_records < 1000

    def test_same_key_meets_same_reducer(self, cluster):
        records = [(i % 7, i) for i in range(300)]
        cluster.write_file("nums", records)

        def mapper(record):
            yield (record[0], record[1])

        groups_seen = []

        def reducer(key, values, ctx):
            groups_seen.append(key)
            yield (key, len(values))

        job = MapReduceJob(mapper, reducer, num_reducers=4)
        result = job.run(cluster.dfs.open("nums"), cluster)
        # Each key reduced exactly once: no key split across reducers.
        assert sorted(groups_seen) == list(range(7))
        assert all(count in (42, 43) for _key, count in result.outputs)

    def test_num_reducers_validated(self):
        with pytest.raises(ValueError):
            MapReduceJob(word_mapper, counting_reducer, num_reducers=0)

    def test_reduce_task_sees_each_task_whole(self, cluster, words):
        """The whole-task hook gets a task's key-sorted groups at once
        and reports exactly what the per-group reducer reports."""
        tasks_seen = []

        def reduce_task(groups, ctx):
            tasks_seen.append([key for key, _values in groups])
            return [
                row
                for key, values in groups
                for row in counting_reducer(key, values, ctx)
            ]

        per_group = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        per_task = MapReduceJob(
            word_mapper, None, num_reducers=3, reduce_task=reduce_task
        )
        a = per_group.run(words, cluster)
        b = per_task.run(words, cluster)
        assert b.outputs == a.outputs
        assert b.report.counters == a.report.counters
        assert b.report.breakdown == a.report.breakdown
        # One call per reduce task, empty ones included.
        assert len(tasks_seen) == 3
        assert all(keys == sorted(keys) for keys in tasks_seen)
        assert sorted(k for keys in tasks_seen for k in keys) == [
            "fox", "quick", "the",
        ]

    def test_exactly_one_reduce_function(self):
        with pytest.raises(ValueError, match="exactly one"):
            MapReduceJob(word_mapper, None, num_reducers=2)
        with pytest.raises(ValueError, match="exactly one"):
            MapReduceJob(
                word_mapper, counting_reducer, num_reducers=2,
                reduce_task=lambda groups, ctx: [],
            )


class TestReporting:
    def test_counters(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        report = job.run(words, cluster).report
        counters = report.counters
        assert counters.map_input_records == 1000
        assert counters.map_output_records == 1000
        assert counters.reduce_input_records == 1000
        assert counters.reduce_output_records == 3
        assert counters.map_tasks == len(words.blocks)
        assert counters.reduce_tasks == 3

    def test_breakdown_is_cumulative(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        report = job.run(words, cluster).report
        bars = report.breakdown.cumulative()
        assert (
            bars["Map-Only"] <= bars["MR"] <= bars["Sort"] <= bars["Sort+Eval"]
        )
        assert report.response_time == pytest.approx(bars["Sort+Eval"])

    def test_reducer_loads(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        report = job.run(words, cluster).report
        assert sum(report.reducer_loads) == 1000
        assert report.max_reducer_load >= 1000 / 3
        assert report.load_imbalance >= 1.0

    def test_summary_mentions_name(self, cluster, words):
        job = MapReduceJob(
            word_mapper, counting_reducer, num_reducers=2, name="mr-test"
        )
        assert "mr-test" in job.run(words, cluster).report.summary()


class TestCombinedSort:
    def test_group_sort_eliminated(self, cluster, words):
        def sorting_reducer(key, values, ctx):
            ctx.charge_sort(len(values), len(values) * 64)
            yield (key, len(values))

        plain = MapReduceJob(word_mapper, sorting_reducer, num_reducers=2)
        merged = MapReduceJob(
            word_mapper, sorting_reducer, num_reducers=2, combined_sort=True
        )
        a = plain.run(words, cluster).report
        b = merged.run(words, cluster).report
        assert a.breakdown.group_sort > 0
        assert b.breakdown.group_sort == 0
        assert b.breakdown.framework_sort >= a.breakdown.framework_sort
        assert b.response_time < a.response_time


class TestFailures:
    def test_remote_read_after_primary_replica_loss(self):
        cluster = SimulatedCluster(ClusterConfig(machines=4, replication=2))
        cluster.write_file("words", [("a",), ("b",)] * 500)
        words = cluster.dfs.open("words")
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=4)
        baseline = job.run(words, cluster)

        # Kill exactly the machine hosting the primary replica so that
        # the map task must read remotely from the surviving copy.
        cluster.fail_machine(words.blocks[0].replicas[0])
        degraded = job.run(words, cluster)
        assert sorted(degraded.outputs) == sorted(baseline.outputs)
        counters = degraded.report.counters
        assert counters.remote_block_reads == len(words.blocks)
        assert degraded.report.response_time > baseline.report.response_time

    def test_reducer_retry_on_failed_machine(self):
        cluster = SimulatedCluster(ClusterConfig(machines=4, replication=4))
        cluster.write_file("words", [("a",), ("b",)] * 500)
        words = cluster.dfs.open("words")
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=4)
        baseline = job.run(words, cluster)

        # Reducer placement walks live machines; with replication=4 the
        # map side is immune, so any slowdown comes from the retry.
        victim = cluster.reducer_machine(0)
        cluster.fail_machine(victim)
        degraded = job.run(words, cluster)
        assert sorted(degraded.outputs) == sorted(baseline.outputs)
        assert degraded.report.counters.task_retries >= 0


class TestHashing:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert default_partitioner(("a", 1), 7) == default_partitioner(
            ("a", 1), 7
        )

    def test_partitioner_in_range(self):
        for key in [(0,), (1, 2), ("x", "y"), (999, 999, 999)]:
            assert 0 <= default_partitioner(key, 5) < 5
