"""The always-on daemon: bit-identity under sharing, load and faults.

Every test drives :class:`QueryService` through the synchronous
:func:`serve_arrivals` replay wrapper and holds its ``ok`` answers to
the same standard as the one-shot paths: byte-identical to standalone
runs, to ``repro batch`` co-evaluation, and to the centralized oracle.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import MappingProxyType

import pytest

from repro.faults import ArrivalChaos, apply_arrival_chaos
from repro.io.serialize import result_from_dict, result_to_dict
from repro.local import evaluate_centralized
from repro.obs.manifest import SCHEMA_VERSION, RunManifest
from repro.obs.telemetry import TelemetryRegistry
from repro.parallel import ParallelEvaluator
from repro.query import WorkflowBuilder
from repro.serving import (
    Arrival,
    BatchEvaluator,
    BreakerConfig,
    MeasureCache,
    QueryRequest,
    QueryService,
    ServiceLimits,
    TenantQuotas,
    generate_arrivals,
    serve_arrivals,
)
from repro.serving import daemon as daemon_module

from tests.serving.conftest import fresh_cluster

REPO_ROOT = Path(__file__).resolve().parents[2]


def _service(catalog, records, **kwargs):
    kwargs.setdefault(
        "limits",
        ServiceLimits(admission_window_ms=25.0, max_inflight=2),
    )
    kwargs.setdefault("cluster_factory", lambda: fresh_cluster())
    return QueryService(catalog, records, **kwargs)


def _burst(names, deadline_ms=None, tenant="default", gap=0.002):
    """A deterministic trace: *names* arriving one per *gap* seconds."""
    return [
        Arrival(
            at=index * gap,
            tenant=tenant,
            query=name,
            deadline_ms=deadline_ms,
        )
        for index, name in enumerate(names)
    ]


def _rows(result):
    return list(result.as_rows())


class TestBitIdentity:
    def test_share_groups_match_solo_batch_and_oracle(
        self, batch_queries, batch_records, solo_results
    ):
        names = sorted(batch_queries) * 3
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names), speed=0
        )

        assert [r.status for r in responses] == ["ok"] * len(names)
        for response in responses:
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            ), response.name
        # The admission window actually shared work: fewer dispatched
        # groups than arrivals, and at least one multi-member group.
        assert report.completed == len(names)
        assert report.groups_dispatched < len(names)
        assert any(len(r.group_queries) > 1 for r in responses)
        assert report.drained

        # Same answers as one-shot batch co-evaluation ...
        batch = BatchEvaluator(fresh_cluster()).evaluate(
            batch_queries, batch_records
        )
        for name in batch_queries:
            assert _rows(batch.results[name]) == _rows(solo_results[name])
        # ... and as the centralized oracle.
        for name, workflow in batch_queries.items():
            oracle = evaluate_centralized(workflow, batch_records)
            assert _rows(solo_results[name]) == _rows(oracle), name

    def test_chaos_storm_stays_bit_identical(
        self, batch_queries, batch_records, solo_results
    ):
        arrivals = generate_arrivals(
            sorted(batch_queries), rate=150.0, duration=0.2, seed=13
        )
        stormed = apply_arrival_chaos(
            arrivals, ArrivalChaos.storm(13, intensity=0.4)
        )
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                admission_window_ms=20.0,
                max_inflight=2,
                max_queue_depth=64,
                max_pending=4096,
            ),
        )
        responses, report = serve_arrivals(service, stormed, speed=0)
        assert len(responses) == len(stormed)
        assert report.completed == len(stormed)
        for response in responses:
            assert response.ok
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            ), response.name


class TestDeadlines:
    def test_expired_deadlines_cancel_instead_of_answering(
        self, batch_queries, batch_records
    ):
        names = ["Q1", "Q2", "Q3"]
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names, deadline_ms=0.01), speed=0
        )
        assert [r.status for r in responses] == ["deadline"] * len(names)
        assert all(r.result is None for r in responses)
        assert report.deadline_missed == len(names)
        assert report.completed == 0

    def test_generous_deadlines_change_nothing(
        self, batch_queries, batch_records, solo_results
    ):
        names = sorted(batch_queries)
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names, deadline_ms=120_000.0), speed=0
        )
        assert report.deadline_missed == 0
        assert report.late == 0
        for response in responses:
            assert response.ok
            assert not response.late
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )

    def test_member_without_deadline_is_always_answered(
        self, batch_queries, batch_records, solo_results
    ):
        """One undeadlined member keeps its group uncancellable."""
        arrivals = [
            Arrival(at=0.0, tenant="a", query="Q2"),
            Arrival(at=0.001, tenant="b", query="Q2", deadline_ms=0.01),
        ]
        service = _service(batch_queries, batch_records)
        responses, _ = serve_arrivals(service, arrivals, speed=0)
        undeadlined, tiny = responses
        assert undeadlined.ok
        assert _rows(undeadlined.result) == _rows(solo_results["Q2"])
        # The impatient partner either rode the same (uncancellable)
        # group and is merely late, or was dispatched alone and expired.
        assert tiny.status in ("ok", "deadline")
        if tiny.ok:
            assert tiny.late
            assert _rows(tiny.result) == _rows(solo_results["Q2"])


class TestShedding:
    def test_overload_sheds_with_structured_reasons(
        self, batch_queries, batch_records, solo_results
    ):
        names = sorted(batch_queries) * 8
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                max_queue_depth=2,
                max_inflight=1,
                max_pending=4,
                admission_window_ms=10.0,
            ),
        )
        responses, report = serve_arrivals(
            service, _burst(names, gap=0.0), speed=0
        )
        shed = [r for r in responses if r.status == "overloaded"]
        served = [r for r in responses if r.ok]
        assert shed, "tight limits must shed under a burst"
        assert served, "shedding must not starve everyone"
        assert len(shed) + len(served) == len(names)
        for response in shed:
            assert response.result is None
            overload = response.overload
            assert overload is not None
            assert overload.reason == "queue_full"
            assert overload.retry_after_ms > 0
            assert overload.to_dict()["reason"] == "queue_full"
        # Admitted queries still get exact answers under pressure.
        for response in served:
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )
        assert report.total_shed == len(shed)
        assert report.shed.get("queue_full") == len(shed)
        assert report.drained

    def test_tenant_quota_sheds_only_the_noisy_tenant(
        self, batch_queries, batch_records
    ):
        arrivals = [
            Arrival(at=0.0, tenant="noisy", query="Q1"),
            Arrival(at=0.001, tenant="noisy", query="Q2"),
            Arrival(at=0.002, tenant="polite", query="Q3"),
        ]
        service = _service(
            batch_queries,
            batch_records,
            quotas=TenantQuotas(capacity=1.0, rate=0.0001),
        )
        responses, report = serve_arrivals(service, arrivals, speed=0)
        first, second, other = responses
        assert first.ok
        assert second.status == "overloaded"
        assert second.overload.reason == "quota"
        assert second.overload.retry_after_ms > 0
        assert other.ok
        assert report.shed == {"quota": 1}
        assert report.quotas["rejections"] == {"noisy": 1}

    def test_draining_service_sheds_new_submissions(
        self, batch_queries, batch_records
    ):
        async def body():
            service = _service(batch_queries, batch_records)
            await service.start()
            drain_task = asyncio.create_task(service.drain())
            await asyncio.sleep(0)
            response = await service.submit(
                QueryRequest(
                    name="Q1", workflow=batch_queries["Q1"]
                )
            )
            assert response.status == "overloaded"
            assert response.overload.reason == "draining"
            report = await drain_task
            assert report.drained
            assert report.shed == {"draining": 1}

        asyncio.run(body())


class TestCircuitBreaker:
    def test_backend_failures_fall_back_to_exact_answers(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        def broken(self, workflow, plan, cancel):
            raise RuntimeError("injected backend failure")

        monkeypatch.setattr(daemon_module._Execution, "run_group", broken)
        names = sorted(batch_queries)
        service = _service(
            batch_queries,
            batch_records,
            breaker=BreakerConfig(threshold=2, cooldown_s=60.0),
        )
        responses, report = serve_arrivals(
            service, _burst(names), speed=0
        )
        # Every answer still arrives, exact, via the centralized path.
        for response in responses:
            assert response.ok, response.error
            assert "fallback" in response.served_by
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )
        assert report.errors == 0
        assert report.fallbacks >= len(names)
        assert report.breaker_trips >= 1

    def test_healthy_backend_never_falls_back(
        self, batch_queries, batch_records
    ):
        service = _service(batch_queries, batch_records)
        _, report = serve_arrivals(
            service, _burst(sorted(batch_queries)), speed=0
        )
        assert report.fallbacks == 0
        assert report.breaker_trips == 0


class TestExecutionTurns:
    def test_workers_take_turns_and_the_wait_is_queue_wait(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        guard = threading.Lock()
        running = []
        overlap = []
        evaluate = ParallelEvaluator.evaluate

        def counted(self, *args, **kwargs):
            with guard:
                running.append(None)
                overlap.append(len(running))
            try:
                # Hold the turn long enough for the other worker's
                # group to arrive at it.
                time.sleep(0.01)
                return evaluate(self, *args, **kwargs)
            finally:
                with guard:
                    running.pop()

        monkeypatch.setattr(ParallelEvaluator, "evaluate", counted)
        slots = []
        execute_group = daemon_module.QueryService._execute_group

        async def recorded(self, slot, group):
            slots.append(slot)
            return await execute_group(self, slot, group)

        monkeypatch.setattr(
            daemon_module.QueryService, "_execute_group", recorded
        )
        names = sorted(batch_queries)
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                admission_window_ms=5.0, max_inflight=2, max_group_size=1
            ),
        )
        responses, report = serve_arrivals(
            service, _burst(names * 2, gap=0.0), speed=0
        )
        # The second copies join free; the first copies' groups are
        # enough for both workers to take turns.
        assert report.groups_dispatched >= len(names)
        assert set(slots) == {0, 1}
        assert max(overlap) == 1
        for response in responses:
            assert response.ok
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            ), response.name
        ledgers = service.ledgers.closed()
        assert len(ledgers) == len(responses)
        assert all(ledger.complete() for ledger in ledgers)


class TestServiceTelemetry:
    def test_every_group_run_on_the_backend_completes_one_job(
        self, batch_queries, batch_records
    ):
        """Both worker tasks' groups reach the service's registry."""
        telemetry = TelemetryRegistry()
        names = sorted(batch_queries)
        service = _service(
            batch_queries,
            batch_records,
            telemetry=telemetry,
            limits=ServiceLimits(
                admission_window_ms=5.0, max_inflight=2, max_group_size=1
            ),
        )
        _, report = serve_arrivals(
            service, _burst(names * 2, gap=0.0), speed=0
        )
        assert report.fallbacks == 0
        assert report.groups_dispatched >= len(names)
        assert report.admission["free_joins"] >= len(names)
        assert (
            telemetry.counters["job.completed"] == report.groups_dispatched
        )


class TestPlanMemo:
    """Plans are memoized by workflow shape, never by catalog name or by
    the address of an object the memo does not keep alive."""

    def test_one_name_two_workflows(self, batch_queries, batch_records):
        service = _service(batch_queries, batch_records)
        first, second = batch_queries["Q1"], batch_queries["Q2"]

        async def body():
            answers = [
                await service.submit(QueryRequest("same", workflow))
                for workflow in (first, second)
            ]
            await service.drain()
            return answers

        answers = asyncio.run(body())
        for workflow, answer in zip((first, second), answers):
            assert answer.ok
            assert _rows(answer.result) == _rows(
                evaluate_centralized(workflow, batch_records)
            )

    def test_append_reprices_merges(self, batch_queries, batch_records):
        workflow = batch_queries["Q2"]
        base, delta = batch_records[:1500], batch_records[1500:]
        service = _service({"Q2": workflow}, base)
        dispatched = []

        async def pair():
            answers = await asyncio.gather(
                *(
                    service.submit(QueryRequest("Q2", workflow))
                    for _ in range(2)
                )
            )
            assert all(answer.ok for answer in answers)

        async def body():
            await service.start()
            enqueue = service._enqueue_group

            def recording(group, force=False):
                dispatched.append(group)
                enqueue(group, force=force)

            service._enqueue_group = recording
            await pair()
            merged_before = [g for g in dispatched if len(g.units) > 1]
            await service.append(delta)
            dispatched.clear()
            await pair()
            await service.drain()
            return merged_before

        merged_before = asyncio.run(body())
        merged_after = [g for g in dispatched if len(g.units) > 1]
        assert merged_before and merged_after
        for group in merged_after:
            fresh = service.optimizer.plan(
                group.workflow, len(batch_records), service.num_reducers
            )
            assert group.plan.predicted_max_load == (
                fresh.predicted_max_load
            )

    def test_seeded_burst_matches_oracle_without_fallback(
        self, batch_queries, batch_records
    ):
        oracles = {
            name: evaluate_centralized(workflow, batch_records)
            for name, workflow in batch_queries.items()
        }
        arrivals = generate_arrivals(
            sorted(batch_queries), rate=500.0, duration=0.2, seed=29
        )
        assert 80 <= len(arrivals) <= 120
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                admission_window_ms=5.0, max_inflight=2,
                max_queue_depth=64, max_pending=4096,
            ),
        )
        responses, report = serve_arrivals(service, arrivals, speed=0)
        assert report.fallbacks == 0
        assert report.breaker_trips == 0
        assert any(response.ok for response in responses)
        for response in responses:
            if response.ok:
                assert _rows(response.result) == _rows(
                    oracles[response.name]
                ), response.name


class TestCacheFastPath:
    def test_second_trace_is_served_joblessly_from_cache(
        self, batch_queries, batch_records, solo_results
    ):
        cache = MeasureCache()
        names = sorted(batch_queries)

        cold = _service(batch_queries, batch_records, cache=cache)
        cold_responses, cold_report = serve_arrivals(
            cold, _burst(names), speed=0
        )
        assert all(r.ok for r in cold_responses)
        assert cold_report.groups_dispatched > 0

        warm = _service(batch_queries, batch_records, cache=cache)
        warm_responses, warm_report = serve_arrivals(
            warm, _burst(names), speed=0
        )
        assert warm_report.groups_dispatched == 0
        for response in warm_responses:
            assert response.ok
            assert set(response.served_by) <= {"cache", "derive"}
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )
        assert warm_report.cache["hits"] > 0

    def test_served_answers_are_shared_read_only_and_portable(
        self, batch_schema, batch_queries, batch_records, solo_results
    ):
        cache = MeasureCache()
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            batch_queries, batch_records
        )
        names = sorted(batch_queries)
        first, _ = serve_arrivals(
            _service(batch_queries, batch_records, cache=cache),
            _burst(names), speed=0,
        )
        for response in first:
            assert set(response.served_by) == {"cache"}
            for table in response.result.tables.values():
                assert isinstance(table.values, MappingProxyType)
                coords = next(iter(table.coords()))
                with pytest.raises(TypeError):
                    table[coords] = -1
            # Pickled (the process boundary) and through repro.io
            # (the wire and file form), a shared answer reads the same.
            assert pickle.loads(pickle.dumps(response.result)) == (
                response.result
            )
            assert result_from_dict(
                result_to_dict(response.result), batch_schema
            ) == response.result
        second, _ = serve_arrivals(
            _service(batch_queries, batch_records, cache=cache),
            _burst(names), speed=0,
        )
        for response in second:
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )


    def test_ledger_closes_at_the_measured_latency(
        self, batch_queries, batch_records
    ):
        """The ledger's total is the response's latency, to the bit: it
        closes at the instant ``_finish`` measured, not at a later read
        of the clock (a stall between the two would land in the
        unattributed tail).  The clock advances on every read here."""
        cache = MeasureCache()
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            batch_queries, batch_records
        )
        ticks = iter(range(1, 10**9))
        service = _service(
            batch_queries, batch_records, cache=cache,
            clock=lambda: next(ticks) / 1000.0,
        )
        responses, _ = serve_arrivals(
            service, _burst(sorted(batch_queries)), speed=0
        )
        for response in responses:
            assert set(response.served_by) == {"cache"}
            ledger = service.ledgers.get(response.trace_id)
            assert ledger.closed
            assert ledger.total_ms == response.latency_ms > 0


def _warm_with_q2_basic(cache, batch_schema, batch_records):
    """Materialize only Q2's basic measure, under a different name."""
    builder = WorkflowBuilder(batch_schema)
    builder.basic(
        "any_name",
        over={"a1": "value", "t1": "minute"},
        field="a2",
        aggregate="sum",
    )
    BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
        {"warmup": builder.build()}, batch_records
    )


class TestServeDispositions:
    """The daemon's cache / derive / execute decisions, pinned."""

    def test_cached_basics_derive_then_cache(
        self, batch_schema, batch_queries, batch_records, solo_results
    ):
        cache = MeasureCache()
        _warm_with_q2_basic(cache, batch_schema, batch_records)
        catalog = {"Q2": batch_queries["Q2"]}

        (derived,), report = serve_arrivals(
            _service(catalog, batch_records, cache=cache),
            _burst(["Q2"]), speed=0,
        )
        assert derived.ok
        assert derived.served_by == ["derive"]
        assert report.groups_dispatched == 0
        assert _rows(derived.result) == _rows(solo_results["Q2"])

        (cached,), _ = serve_arrivals(
            _service(catalog, batch_records, cache=cache),
            _burst(["Q2"]), speed=0,
        )
        assert cached.served_by == ["cache"]
        assert _rows(cached.result) == _rows(solo_results["Q2"])

    def test_vanished_entry_demotes_to_a_group(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        cache = MeasureCache()
        catalog = {"Q2": batch_queries["Q2"]}
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            catalog, batch_records
        )
        real_probe = cache.probe
        missed: list[str] = []

        def probe_missing_once(key, granularity):
            if not missed:
                missed.append(key)
                return None
            return real_probe(key, granularity)

        # Classification's one probe per key is the only read: a key
        # it misses sends the component to admission.
        monkeypatch.setattr(cache, "probe", probe_missing_once)
        (response,), report = serve_arrivals(
            _service(catalog, batch_records, cache=cache),
            _burst(["Q2"]), speed=0,
        )
        assert missed
        assert response.ok
        assert "group" in response.served_by
        assert report.groups_dispatched == 1
        assert _rows(response.result) == _rows(solo_results["Q2"])

    def test_batch_plan_and_daemon_agree(
        self, tmp_path, batch_schema, batch_queries, batch_records
    ):
        warm = MeasureCache(tmp_path / "warm")
        _warm_with_q2_basic(warm, batch_schema, batch_records)
        BatchEvaluator(fresh_cluster(), cache=warm).evaluate(
            {name: batch_queries[name] for name in ("Q1", "Q3")},
            batch_records,
        )
        shutil.copytree(tmp_path / "warm", tmp_path / "batch")
        shutil.copytree(tmp_path / "warm", tmp_path / "serve")

        batch_cache = MeasureCache(tmp_path / "batch")
        evaluator = BatchEvaluator(fresh_cluster(), cache=batch_cache)
        plan = evaluator.plan(batch_queries, batch_records)
        evaluator.evaluate(batch_queries, batch_records, plan=plan)

        served_cache = MeasureCache(tmp_path / "serve")
        responses, _ = serve_arrivals(
            _service(batch_queries, batch_records, cache=served_cache),
            _burst(sorted(batch_queries), gap=0.0), speed=0,
        )
        as_served = {"cache": "cache", "derive": "derive",
                     "execute": "group"}
        dispositions = set()
        for response in responses:
            (planned,) = [
                q for q in plan.queries if q.name == response.name
            ]
            expected = sorted(
                as_served[c.disposition] for c in planned.components
            )
            assert sorted(response.served_by) == expected, response.name
            dispositions.update(expected)
        assert dispositions == {"cache", "derive", "group"}
        # Both fresh instances over copies of one warm directory: their
        # lifetime tallies are the two paths' deltas, planning included.
        assert served_cache.stats == batch_cache.stats


class TestCacheTallies:
    """One probe per measure leaves the cache's tallies where the
    contains-then-get classification left them: a table counts as a
    hit only when an answer is served from it, a missing key counts
    once when classified and once more when its table is stored."""

    @staticmethod
    def _prepare(case, batch_schema, batch_queries, batch_records):
        cache = MeasureCache()
        if case == "derive":
            _warm_with_q2_basic(cache, batch_schema, batch_records)
            return cache, {"Q2": batch_queries["Q2"]}
        catalog = {"Q3": batch_queries["Q3"]}
        plan = BatchEvaluator(fresh_cluster(), cache=cache).plan(
            catalog, batch_records
        )
        BatchEvaluator(fresh_cluster(), cache=cache).evaluate(
            catalog, batch_records
        )
        if case == "partial":
            # Every Q3 measure stays cached but one basic: the
            # component executes, and its cached measures are no hits.
            (component,) = plan.components()
            cache.discard(component.keys["views"])
        return cache, catalog

    #: (hits, misses, stores) of answering the catalog once.
    EXPECTED = {
        "cache": (5, 0, 0),
        "derive": (1, 2, 1),
        "partial": (0, 2, 1),
    }

    @pytest.mark.parametrize("case", sorted(EXPECTED))
    @pytest.mark.parametrize("path", ["serve", "batch"])
    def test_tallies_per_disposition(
        self, path, case, batch_schema, batch_queries, batch_records,
        solo_results,
    ):
        cache, catalog = self._prepare(
            case, batch_schema, batch_queries, batch_records
        )
        telemetry = TelemetryRegistry()
        before = cache.stats.snapshot()
        if path == "serve":
            responses, _ = serve_arrivals(
                _service(
                    catalog, batch_records, cache=cache,
                    telemetry=telemetry,
                ),
                _burst(sorted(catalog)), speed=0,
            )
            results = {r.name: r.result for r in responses}
        else:
            results = BatchEvaluator(
                fresh_cluster(), cache=cache, telemetry=telemetry
            ).evaluate(catalog, batch_records).results
        after = cache.stats
        tallies = (
            after.hits - before.hits,
            after.misses - before.misses,
            after.stores - before.stores,
        )
        assert tallies == self.EXPECTED[case]
        assert (
            telemetry.counters.get("cache.hits", 0),
            telemetry.counters.get("cache.misses", 0),
            telemetry.counters.get("cache.stores", 0),
        ) == tallies
        for name, result in results.items():
            assert _rows(result) == _rows(solo_results[name])


class TestManifest:
    def test_from_serve_round_trips_at_current_schema(
        self, batch_queries, batch_records
    ):
        service = _service(batch_queries, batch_records)
        _, report = serve_arrivals(
            service, _burst(sorted(batch_queries)), speed=0
        )
        manifest = RunManifest.from_serve(report)
        data = manifest.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION == 9
        assert data["serving"]["arrivals"] == len(batch_queries)
        assert data["serving"]["drained"] is True

        loaded = RunManifest.from_dict(
            json.loads(json.dumps(data))
        )
        assert loaded.serving == data["serving"]
        summary = loaded.summary()
        assert "serving:" in summary
        assert "drained cleanly" in summary


class TestGracefulDrain:
    def test_sigterm_mid_replay_drains_and_writes_manifest(
        self, tmp_path
    ):
        """SIGTERM during a paced replay: in-flight groups finish, the
        memory cache spills, and a valid current-schema manifest
        lands."""
        manifest_path = tmp_path / "serve.manifest.json"
        spill_dir = tmp_path / "spill"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            str(REPO_ROOT / "examples" / "queries" / "weblog.cq"),
            "--schema", "weblog",
            "--records", "400",
            "--machines", "4",
            "--rate", "15",
            "--duration", "30",
            "--speed", "1",
            "--window-ms", "25",
            "--max-cache-bytes", "50000000",
            "--cache-spill", str(spill_dir),
            "--manifest", str(manifest_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            time.sleep(3.0)
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=120)
        except Exception:
            process.kill()
            raise
        assert process.returncode == 0, stdout
        assert "serve:" in stdout

        data = json.loads(manifest_path.read_text())
        assert data["schema_version"] == 9
        serving = data["serving"]
        assert serving["drained"] is True
        assert serving["arrivals"] > 0
        assert serving["completed"] > 0
        # The signal landed mid-trace, so the tail was shed as draining.
        assert serving["shed"].get("draining", 0) > 0
        # Completed groups' measures were spilled on drain.
        assert spill_dir.exists()
        assert list(spill_dir.glob("*.json"))
