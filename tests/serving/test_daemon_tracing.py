"""End-to-end tracing through the serving daemon.

The invariants ``tools/serve_smoke.py --check-traces`` enforces in CI,
exercised directly: every admitted query yields one causally-connected
trace tree (share groups joined via links), its attribution ledger
tiles the end-to-end latency, SLO accounting sees every outcome, and
the flight recorder dumps on the advertised triggers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.ledger import PHASES
from repro.obs.slo import SloPolicy, SloTracker
from repro.obs.tracer import Tracer
from repro.obs.traceview import collect_trace, find_orphans, render_trace
from repro.serving import (
    Arrival,
    MeasureCache,
    QueryRequest,
    QueryService,
    ServiceLimits,
    serve_arrivals,
)

from tests.serving.conftest import fresh_cluster


def _service(catalog, records, **kwargs):
    kwargs.setdefault(
        "limits",
        ServiceLimits(admission_window_ms=25.0, max_inflight=2),
    )
    kwargs.setdefault("cluster_factory", lambda: fresh_cluster())
    kwargs.setdefault("tracer", Tracer())
    return QueryService(catalog, records, **kwargs)


def _burst(names, deadline_ms=None, tenant="default", gap=0.002):
    return [
        Arrival(at=index * gap, tenant=tenant, query=name,
                deadline_ms=deadline_ms)
        for index, name in enumerate(names)
    ]


class TestTraceTrees:
    def test_one_connected_tree_per_query(
        self, batch_queries, batch_records
    ):
        names = sorted(batch_queries) * 2
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names), speed=0
        )
        assert [r.status for r in responses] == ["ok"] * len(names)

        spans = service.tracer.to_dicts()
        assert find_orphans(spans) == []
        for response in responses:
            assert response.trace_id
            tree = collect_trace(spans, response.trace_id)
            assert tree, response.trace_id
            names_in_tree = {span["name"] for span in tree}
            # Root (named after the query) plus the daemon-side path.
            assert response.name in names_in_tree
            assert "admission" in names_in_tree
            assert "execute" in names_in_tree
            roots = [s for s in tree if s.get("parent_id") is None]
            assert len(roots) == 1
            assert roots[0]["attributes"]["status"] == "ok"

    def test_share_group_execution_rides_links(
        self, batch_queries, batch_records
    ):
        names = sorted(batch_queries) * 3
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names), speed=0
        )
        shared = [r for r in responses if len(r.group_queries) > 1]
        assert shared, "the admission window must form share groups"
        assert report.groups_dispatched < len(names)

        spans = service.tracer.to_dicts()
        executes = [s for s in spans if s["name"] == "execute"]
        # One execution span per dispatched group, not per query.
        assert len(executes) == report.groups_dispatched
        linked = [s for s in executes if s.get("links")]
        assert linked, "multi-member groups must link member roots"
        # Every member's tree reaches the shared execution span, and
        # the render marks it as shared for non-primary members.
        for span in linked:
            for trace_id, _root_span in span["links"]:
                tree = collect_trace(spans, trace_id)
                assert span["span_id"] in {s["span_id"] for s in tree}
                assert "⇢shared" in render_trace(spans, trace_id)

    def test_render_shows_phase_children(
        self, batch_queries, batch_records
    ):
        service = _service(batch_queries, batch_records)
        responses, _ = serve_arrivals(
            service, _burst(["Q1"]), speed=0
        )
        text = render_trace(
            service.tracer.to_dicts(), responses[0].trace_id
        )
        assert "map" in text
        assert "reduce" in text


class TestLatencyLedger:
    def test_phases_tile_every_latency(
        self, batch_queries, batch_records
    ):
        names = sorted(batch_queries) * 2
        service = _service(batch_queries, batch_records)
        responses, _ = serve_arrivals(service, _burst(names), speed=0)

        closed = service.ledgers.closed()
        assert len(closed) == len(names)
        by_trace = {ledger.trace_id: ledger for ledger in closed}
        for response in responses:
            ledger = by_trace[response.trace_id]
            assert ledger.status == "ok"
            assert ledger.complete(tolerance=0.05), (
                f"{response.name}: residual {ledger.residual_ms:.2f}ms "
                f"of {ledger.total_ms:.2f}ms"
            )
            # The ledger clock is the service clock, the response
            # latency the same measurement: they must agree.
            assert ledger.total_ms == pytest.approx(
                response.latency_ms, rel=0.05, abs=1.0
            )
            assert set(ledger.phases) == set(PHASES)
            assert ledger.phases["map"] > 0.0

    def test_manifest_section_counts_completeness(
        self, batch_queries, batch_records
    ):
        service = _service(batch_queries, batch_records)
        serve_arrivals(service, _burst(sorted(batch_queries)), speed=0)
        section = service.ledgers.to_dict()
        assert section["total"] == len(batch_queries)
        assert section["complete"] == section["total"]
        assert "default" in section["tenants"]

    def test_a_cache_served_ledger_tiles_its_latency(
        self, batch_queries, batch_records
    ):
        """An answer served with no job charges its whole residence, up
        to the latency instant, to cache_lookup."""
        cache = MeasureCache()
        serve_arrivals(
            _service(batch_queries, batch_records, cache=cache),
            _burst(["Q1"]), speed=0,
        )
        ticks = iter(range(1, 1_000_000))

        def stepping_clock():
            # Every read is 10 ms after the last, so the interval
            # between any two reads is visible to the ledger.
            return next(ticks) * 0.010

        service = _service(
            batch_queries, batch_records, cache=cache,
            clock=stepping_clock,
        )

        async def body():
            answer = await service.submit(
                QueryRequest("Q1", batch_queries["Q1"])
            )
            await service.drain()
            return answer

        answer = asyncio.run(body())
        assert answer.ok and set(answer.served_by) == {"cache"}
        ledger = service.ledgers.get(answer.trace_id)
        assert ledger.total_ms == pytest.approx(answer.latency_ms)
        assert ledger.residual_ms == pytest.approx(0.0, abs=1e-6)
        assert ledger.complete()
        assert ledger.phases["cache_lookup"] == pytest.approx(
            answer.latency_ms
        )


class TestShedAndSlo:
    def overload(self, batch_queries, batch_records, **kwargs):
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                admission_window_ms=10.0,
                max_inflight=1,
                max_queue_depth=1,
                max_pending=3,
            ),
            **kwargs,
        )
        names = sorted(batch_queries) * 4
        responses, report = serve_arrivals(
            service, _burst(names, gap=0.0), speed=0
        )
        return service, responses, report

    def test_shed_queries_still_get_annotated_traces(
        self, batch_queries, batch_records
    ):
        service, responses, _ = self.overload(
            batch_queries, batch_records
        )
        shed = [r for r in responses if r.status == "overloaded"]
        assert shed, "tight limits must shed under a gap-0 burst"
        spans = service.tracer.to_dicts()
        assert find_orphans(spans) == []
        for response in shed:
            tree = collect_trace(spans, response.trace_id)
            sheds = [s for s in tree if s["name"] == "shed"]
            assert len(sheds) == 1
            assert sheds[0]["attributes"]["reason"]

    def test_slo_sees_every_outcome(
        self, batch_queries, batch_records
    ):
        from repro.obs.telemetry import TelemetryRegistry

        slo = SloTracker(default=SloPolicy(objective_ms=60_000.0,
                                           target=0.5))
        service, responses, _ = self.overload(
            batch_queries, batch_records, slo=slo,
            telemetry=TelemetryRegistry(),
        )
        snapshot = slo.snapshot()["tenants"]["default"]
        ok = sum(1 for r in responses if r.status == "ok")
        bad = len(responses) - ok
        assert snapshot["good"] == ok
        assert snapshot["bad"] == bad
        assert snapshot["burn_rate"] > 0.0
        # The telemetry plane carries the same counts for `repro top`.
        counters = service.telemetry.snapshot().get("counters", {})
        assert counters.get("slo.default.good", 0) == ok
        assert counters.get("slo.default.bad", 0) == bad

    def test_shed_storm_dumps_the_flight_recorder(
        self, batch_queries, batch_records
    ):
        flight = FlightRecorder()
        service, responses, _ = self.overload(
            batch_queries, batch_records, flight=flight
        )
        shed = sum(1 for r in responses if r.status == "overloaded")
        assert shed >= 10, "need a storm to trigger the dump"
        reasons = {bundle["reason"] for bundle in flight.dumps}
        assert "shed_storm" in reasons
        bundle = next(b for b in flight.dumps
                      if b["reason"] == "shed_storm")
        assert any(entry.get("event") == "shed"
                   for entry in bundle["spans"])


class TestBatchEvaluatorTracing:
    def test_one_shot_batch_traces_every_query(
        self, batch_queries, batch_records
    ):
        from repro.serving import BatchEvaluator

        tracer = Tracer()
        outcome = BatchEvaluator(
            fresh_cluster(), tracer=tracer
        ).evaluate(batch_queries, batch_records)
        assert set(outcome.results) == set(batch_queries)

        spans = tracer.to_dicts()
        assert find_orphans(spans) == []
        for name in batch_queries:
            tree = collect_trace(spans, name)
            roots = [s for s in tree if s.get("parent_id") is None]
            assert len(roots) == 1
            assert roots[0]["name"] == name
            assert roots[0]["attributes"]["status"] == "ok"
            assert any(s["name"] == "execute" for s in tree)
        # Grouped queries share one execution span via links.
        executes = [s for s in spans if s["name"] == "execute"]
        assert len(executes) == len(outcome.groups)
        if any(len(o.group.queries) > 1 for o in outcome.groups):
            assert any(s.get("links") for s in executes)
        # Each group's attempt span hangs under its execution span.
        attempts = [s for s in spans if s["name"] == "batch-group"]
        assert len(attempts) == len(outcome.groups)
        assert {s["parent_id"] for s in attempts} == {
            s["span_id"] for s in executes
        }


class TestDeadlineTrigger:
    def test_expired_deadline_dumps_and_annotates(
        self, batch_queries, batch_records
    ):
        flight = FlightRecorder()
        service = _service(batch_queries, batch_records, flight=flight)
        responses, report = serve_arrivals(
            service, _burst(sorted(batch_queries), deadline_ms=0.01),
            speed=0,
        )
        assert report.deadline_missed == len(responses)
        assert {b["reason"] for b in flight.dumps} == {"deadline_miss"}
        spans = service.tracer.to_dicts()
        for response in responses:
            tree = collect_trace(spans, response.trace_id)
            assert any(s["name"] == "deadline-missed" for s in tree)
            roots = [s for s in tree if s.get("parent_id") is None]
            assert roots[0]["attributes"]["status"] == "deadline"
