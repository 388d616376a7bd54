"""The cross-run measure cache: hits, misses, invalidation, recovery."""

from __future__ import annotations

import gc
import logging
from types import MappingProxyType

import pytest

from repro.local import evaluate_centralized
from repro.local.measure_table import MeasureTable
from repro.obs.manifest import RunManifest
from repro.query import WorkflowBuilder
from repro.serving import (
    BatchEvaluator,
    BatchExecutionError,
    MeasureCache,
)
from repro.serving.planner import (
    DISPOSITION_CACHE,
    DISPOSITION_DERIVE,
    DISPOSITION_EXECUTE,
)
from repro.workload import generate_uniform

from tests.serving.conftest import fresh_cluster


class TestWarmCache:
    def test_second_run_is_jobless_and_identical(
        self, batch_queries, batch_records, solo_results
    ):
        cache = MeasureCache()
        cold = BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            batch_queries, batch_records
        )
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.stores > 0

        warm = BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            batch_queries, batch_records
        )
        assert warm.jobs == []
        assert sorted(warm.jobless_queries) == sorted(batch_queries)
        assert warm.cache_stats.hits > 0
        assert warm.cache_stats.misses == 0
        for name, solo in solo_results.items():
            assert warm.results[name] == solo, name

    def test_dataset_change_invalidates(
        self, batch_schema, batch_queries, batch_records
    ):
        cache = MeasureCache()
        queries = {"Q2": batch_queries["Q2"]}
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            queries, batch_records
        )
        other = generate_uniform(batch_schema, len(batch_records), seed=99)
        rerun = BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            queries, other
        )
        # Different records, different fingerprint: nothing reusable.
        assert rerun.cache_stats.hits == 0
        assert rerun.cache_stats.misses > 0
        assert len(rerun.jobs) == 1

    def test_disk_cache_survives_across_evaluators(
        self, tmp_path, batch_queries, batch_records, solo_results
    ):
        queries = {"Q3": batch_queries["Q3"]}
        BatchEvaluator(
            fresh_cluster(), cache=MeasureCache(tmp_path)
        ).evaluate(queries, batch_records)

        warm = BatchEvaluator(
            fresh_cluster(), cache=MeasureCache(tmp_path)
        ).evaluate(queries, batch_records)
        assert warm.jobs == []
        assert warm.results["Q3"] == solo_results["Q3"]

    def test_corrupt_entry_degrades_to_execution(
        self, tmp_path, batch_queries, batch_records, solo_results
    ):
        queries = {"Q2": batch_queries["Q2"]}
        BatchEvaluator(
            fresh_cluster(), cache=MeasureCache(tmp_path)
        ).evaluate(queries, batch_records)

        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")

        result = BatchEvaluator(
            fresh_cluster(), cache=MeasureCache(tmp_path)
        ).evaluate(queries, batch_records)
        assert result.results["Q2"] == solo_results["Q2"]
        assert result.cache_stats.corrupt > 0


class TestDerivation:
    def test_composites_rederived_from_cached_basics(
        self, batch_schema, batch_queries, batch_records, solo_results
    ):
        # First batch materializes only Q2's basic measure (same
        # structure, different name -- signatures are name-independent).
        builder = WorkflowBuilder(batch_schema)
        builder.basic(
            "any_name",
            over={"a1": "value", "t1": "minute"},
            field="a2",
            aggregate="sum",
        )
        cache = MeasureCache()
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            {"warmup": builder.build()}, batch_records
        )

        evaluator = BatchEvaluator(fresh_cluster(), cache=cache)
        queries = {"Q2": batch_queries["Q2"]}
        plan = evaluator.plan(queries, batch_records)
        (component,) = plan.components()
        assert component.disposition == DISPOSITION_DERIVE

        result = evaluator.evaluate(queries, batch_records, plan=plan)
        assert result.jobs == []
        assert result.results["Q2"] == solo_results["Q2"]


class TestSharedHits:
    """A hit hands out the stored rows themselves, read-only."""

    def test_served_table_refuses_writes_and_next_hit_is_unchanged(
        self, batch_schema
    ):
        table = TestEviction._table(batch_schema, value=1.0)
        cache = MeasureCache()
        cache.put("k", table)
        served = cache.get("k", table.granularity)
        (coords,) = served.coords()
        with pytest.raises(TypeError):
            served[coords] = 2.0
        with pytest.raises(TypeError):
            served.values[coords] = 2.0
        with pytest.raises(TypeError):
            served.merge_disjoint(MeasureTable(table.granularity))
        again = cache.get("k", table.granularity)
        assert dict(again.items()) == {coords: 1.0}
        # A caller that wants to change the rows copies them.
        copy = dict(again.values)
        copy[coords] = 2.0
        assert cache.get("k", table.granularity)[coords] == 1.0

    def test_two_hits_view_one_stored_mapping(self, batch_schema):
        table = TestEviction._table(batch_schema)
        cache = MeasureCache()
        cache.put("k", table)
        first = cache.get("k", table.granularity)
        second = cache.get("k", table.granularity)
        assert isinstance(first.values, MappingProxyType)
        assert isinstance(second.values, MappingProxyType)
        # A mappingproxy's one referent is the mapping it wraps.
        (rows,) = gc.get_referents(first.values)
        assert gc.get_referents(second.values) == [rows]
        assert rows is not table.values  # put copied the caller's rows

    def test_directory_hits_are_read_only_too(
        self, tmp_path, batch_schema
    ):
        table = TestEviction._table(batch_schema)
        cache = MeasureCache(tmp_path)
        cache.put("k", table)
        served = MeasureCache(tmp_path).get("k", table.granularity)
        assert isinstance(served.values, MappingProxyType)
        assert dict(served.items()) == dict(table.items())

    def test_probe_leaves_hits_to_the_caller(self, batch_schema):
        table = TestEviction._table(batch_schema)
        cache = MeasureCache()
        cache.put("k", table)
        assert cache.probe("k", table.granularity) is not None
        assert cache.probe("absent", table.granularity) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        cache.record_hits(3)
        assert cache.stats.hits == 3

    def test_derive_from_shared_basics_equals_centralized(
        self, batch_schema, batch_queries, batch_records
    ):
        builder = WorkflowBuilder(batch_schema)
        builder.basic(
            "any_name",
            over={"a1": "value", "t1": "minute"},
            field="a2",
            aggregate="sum",
        )
        cache = MeasureCache()
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            {"warmup": builder.build()}, batch_records
        )
        queries = {"Q2": batch_queries["Q2"]}
        evaluator = BatchEvaluator(fresh_cluster(), cache=cache)
        plan = evaluator.plan(queries, batch_records)
        (component,) = plan.components()
        assert component.disposition == DISPOSITION_DERIVE
        (basic,) = component.tables.values()
        assert isinstance(basic.values, MappingProxyType)
        before = dict(basic.values)

        result = evaluator.evaluate(queries, batch_records, plan=plan)
        oracle = evaluate_centralized(queries["Q2"], batch_records)
        assert result.results["Q2"] == oracle
        assert dict(basic.values) == before

    def test_entry_evicted_after_classification_still_answers(
        self, batch_queries, batch_records, solo_results
    ):
        cache = MeasureCache()
        queries = {"Q3": batch_queries["Q3"]}
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            queries, batch_records
        )
        evaluator = BatchEvaluator(fresh_cluster(), cache=cache)
        plan = evaluator.plan(queries, batch_records)
        for component in plan.components():
            assert component.disposition == DISPOSITION_CACHE
            for key in component.keys.values():
                cache.discard(key)
        # The plan holds the tables its one probe found: nothing is
        # read, missed or re-executed at load time.
        result = evaluator.evaluate(queries, batch_records, plan=plan)
        assert result.jobs == []
        assert result.results["Q3"] == solo_results["Q3"]
        stats = result.cache_stats
        assert (stats.hits, stats.misses, stats.stores) == (5, 0, 0)


class TestGroupFailures:
    def test_transient_failure_retried(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        evaluator = BatchEvaluator(
            fresh_cluster(), cache=MeasureCache(), group_retries=1
        )
        real = evaluator.inner.evaluate
        calls = {"n": 0}

        def flaky(workflow, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected transient failure")
            return real(workflow, *args, **kwargs)

        monkeypatch.setattr(evaluator.inner, "evaluate", flaky)
        result = evaluator.evaluate(
            {"Q2": batch_queries["Q2"]}, batch_records
        )
        assert result.groups[0].attempts == 2
        assert result.results["Q2"] == solo_results["Q2"]

    def test_failed_group_keeps_completed_entries(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        cache = MeasureCache()
        queries = {"Q1": batch_queries["Q1"], "Q2": batch_queries["Q2"]}
        evaluator = BatchEvaluator(
            fresh_cluster(), cache=cache, group_retries=0
        )
        real = evaluator.inner.evaluate

        def fail_q1_only_groups(workflow, *args, **kwargs):
            if all(name.startswith("Q1/") for name in workflow.names):
                raise RuntimeError("injected persistent failure")
            return real(workflow, *args, **kwargs)

        monkeypatch.setattr(
            evaluator.inner, "evaluate", fail_q1_only_groups
        )
        with pytest.raises(BatchExecutionError) as excinfo:
            evaluator.evaluate(queries, batch_records)
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.results["Q2"] == solo_results["Q2"]
        assert any(not outcome.succeeded for outcome in partial.groups)

        # The completed group's entries were stored before the failure,
        # so a clean re-run resumes: Q2 is answered without a job and
        # only Q1's failed component re-executes.
        rerun_eval = BatchEvaluator(fresh_cluster(), cache=cache)
        plan = rerun_eval.plan(queries, batch_records)
        dispositions = {
            component.disposition for component in plan.components()
        }
        assert DISPOSITION_CACHE in dispositions
        assert DISPOSITION_EXECUTE in dispositions

        rerun = rerun_eval.evaluate(queries, batch_records, plan=plan)
        assert "Q2" in rerun.jobless_queries
        assert len(rerun.jobs) == 1
        assert rerun.results["Q1"] == solo_results["Q1"]
        assert rerun.results["Q2"] == solo_results["Q2"]

    def test_warm_rerun_resumes_every_completed_group(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        """After a mid-batch failure, only the failed group re-executes.

        Every completed group's entries must come back from the cache:
        the resumed run issues exactly one shared job, and its manifest
        surfaces how many components the resume skipped.
        """
        cache = MeasureCache()
        evaluator = BatchEvaluator(
            fresh_cluster(), cache=cache, group_retries=0
        )
        real = evaluator.inner.evaluate

        def fail_q1_only_groups(workflow, *args, **kwargs):
            if all(name.startswith("Q1/") for name in workflow.names):
                raise RuntimeError("injected persistent failure")
            return real(workflow, *args, **kwargs)

        monkeypatch.setattr(
            evaluator.inner, "evaluate", fail_q1_only_groups
        )
        with pytest.raises(BatchExecutionError):
            evaluator.evaluate(batch_queries, batch_records)

        rerun_eval = BatchEvaluator(fresh_cluster(), cache=cache)
        calls = {"jobs": 0}
        rerun_real = rerun_eval.inner.evaluate

        def counting(workflow, *args, **kwargs):
            calls["jobs"] += 1
            return rerun_real(workflow, *args, **kwargs)

        monkeypatch.setattr(rerun_eval.inner, "evaluate", counting)
        rerun = rerun_eval.evaluate(batch_queries, batch_records)
        # Only Q1's failed components re-executed; every other query's
        # entries came back from what its completed group stored.
        assert calls["jobs"] == len(rerun.plan.groups)
        for group in rerun.plan.groups:
            assert set(group.queries) == {"Q1"}
        executed = [
            component
            for component in rerun.plan.components()
            if component.disposition == DISPOSITION_EXECUTE
        ]
        assert all(c.query == "Q1" for c in executed)
        assert rerun.resumed_components > 0
        assert rerun.resumed_components == len(
            rerun.plan.components()
        ) - len(executed)
        for name, solo in solo_results.items():
            assert rerun.results[name] == solo, name

        manifest = RunManifest.from_batch(rerun)
        assert (
            manifest.batch["resumed_components"]
            == rerun.resumed_components
        )
        assert (
            f"resumed from cache: {rerun.resumed_components} "
            "component(s)" in manifest.summary()
        )


class TestEviction:
    @staticmethod
    def _table(batch_schema, value=1.0):
        from repro.cube.regions import Granularity
        from repro.local.measure_table import MeasureTable

        granularity = Granularity.of(batch_schema, {"a1": "value"})
        coords = tuple(
            "x" if level != "ALL" else "*"
            for level in granularity.levels
        )
        return MeasureTable(granularity, {coords: value})

    def test_lru_eviction_under_byte_pressure(self, batch_schema):
        table = self._table(batch_schema)
        probe = MeasureCache()
        probe.put("probe", table)
        entry_bytes = probe.total_bytes
        cache = MeasureCache(max_bytes=int(entry_bytes * 2.5))
        cache.put("k0", table)
        cache.put("k1", table)
        assert cache.stats.evictions == 0
        # Touch k0 so k1 becomes the least recently used...
        assert cache.get("k0", table.granularity) is not None
        cache.put("k2", table)
        # ...and the third store evicts exactly it.
        assert cache.stats.evictions == 1
        assert cache.get("k1", table.granularity) is None
        assert cache.get("k0", table.granularity) is not None
        assert cache.get("k2", table.granularity) is not None
        assert cache.total_bytes <= cache.max_bytes

    def test_single_oversized_entry_is_spared(self, batch_schema):
        table = self._table(batch_schema)
        cache = MeasureCache(max_bytes=1)
        cache.put("huge", table)
        # Evicting the entry we just stored would make put() a lie.
        assert cache.get("huge", table.granularity) is not None
        assert cache.stats.evictions == 0

    def test_ttl_expires_entries_by_age(self, batch_schema):
        table = self._table(batch_schema)
        clock = {"now": 0.0}
        cache = MeasureCache(ttl=10.0, clock=lambda: clock["now"])
        cache.put("k", table)
        clock["now"] = 9.0
        assert cache.get("k", table.granularity) is not None
        clock["now"] = 11.0
        assert cache.get("k", table.granularity) is None
        assert cache.stats.evictions == 1
        assert not cache.contains("k")

    def test_disk_backed_lru_eviction_removes_files(
        self, tmp_path, batch_schema
    ):
        table = self._table(batch_schema)
        probe = MeasureCache(tmp_path / "probe")
        probe.put("probe", table)
        entry_bytes = probe.total_bytes
        cache = MeasureCache(
            tmp_path / "cache", max_bytes=int(entry_bytes * 1.5)
        )
        cache.put("old", table)
        cache.put("new", table)
        assert cache.stats.evictions == 1
        assert not (tmp_path / "cache" / "old.json").exists()
        assert (tmp_path / "cache" / "new.json").exists()


class TestCorruption:
    def test_unreadable_entry_warns_with_key_and_evicts(
        self, tmp_path, batch_schema, caplog
    ):
        table = TestEviction._table(batch_schema)
        cache = MeasureCache(tmp_path)
        cache.put("badkey", table)
        (tmp_path / "badkey.json").write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.serving.cache"):
            assert cache.get("badkey", table.granularity) is None
        assert any(
            "corrupt entry" in record.getMessage()
            and "badkey" in record.getMessage()
            for record in caplog.records
        )
        assert cache.stats.corrupt == 1
        assert cache.stats.evictions == 1
        # The bad file is gone: the next run starts clean.
        assert not (tmp_path / "badkey.json").exists()
        assert not cache.contains("badkey")

    def test_bad_rows_warn_with_key_and_evict(
        self, tmp_path, batch_schema, caplog
    ):
        import json as json_module

        table = TestEviction._table(batch_schema)
        cache = MeasureCache(tmp_path)
        cache.put("rowskey", table)
        path = tmp_path / "rowskey.json"
        payload = json_module.loads(path.read_text())
        payload["rows"] = "not-a-row-list"
        path.write_text(json_module.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="repro.serving.cache"):
            assert cache.get("rowskey", table.granularity) is None
        assert any(
            "rowskey" in record.getMessage()
            for record in caplog.records
        )
        assert cache.stats.corrupt == 1
        assert not path.exists()


class TestSpill:
    def test_memory_cache_spills_and_reloads(
        self, tmp_path, batch_schema
    ):
        table = TestEviction._table(batch_schema, value=42.0)
        cache = MeasureCache()
        cache.put("s0", table)
        cache.put("s1", table)
        written = cache.spill_to(tmp_path)
        assert written == 2

        reloaded = MeasureCache(tmp_path)
        restored = reloaded.get("s0", table.granularity)
        assert restored is not None
        assert list(restored.items()) == list(table.items())
