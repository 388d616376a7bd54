"""Share groups compute each distinct measure once.

:func:`~repro.serving.groups.merge` keeps one measure per signature in
a group's workflow, and :func:`~repro.serving.executor.split_by_query`
hands every member a read-only view of the one table computed for each
signature.  A unit that adds no measure joins its group free, past
``max_group_size``.  These tests pin that the dedupe happens (a group
of identical queries does a solo run's reduce work), that plans and
answers do not move, and that no member can change another's answer.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.local import evaluate_centralized
from repro.obs.telemetry import TelemetryRegistry
from repro.optimizer import Optimizer
from repro.query import WorkflowBuilder
from repro.query.workflow import Workflow, connected_components
from repro.serving import (
    AdmissionController,
    BatchEvaluator,
    BatchUnit,
    BreakerConfig,
    QueryRequest,
    QueryService,
    ServiceLimits,
    prefix_workflow,
)
from repro.serving import daemon as daemon_module
from repro.serving.executor import split_by_query
from repro.serving.groups import QUERY_SEPARATOR, ShareGroup, merge

from tests.serving.conftest import fresh_cluster

N_RECORDS = 10_000
NUM_REDUCERS = 8


def typed(result) -> dict:
    """(measure, region) -> (type, repr): equal only when every value's
    bits and Python type are."""
    return {
        (name, coords): (type(value), repr(value))
        for name, table in result.items()
        for coords, value in table.items()
    }


def refuses_writes(table) -> bool:
    """Whether writes to *table*, through it or its rows, raise."""
    coords = next(iter(table.coords()), ())
    try:
        table[coords] = None
        return False
    except TypeError:
        pass
    try:
        table.values[coords] = None
        return False
    except TypeError:
        return True


def _prefixed(workflow, query):
    return prefix_workflow(workflow, query + QUERY_SEPARATOR)


def _rolled(schema, basic="base", rolled=None, field="a2"):
    """A minute-level basic sum, plus an hourly roll-up of it when
    *rolled* names one."""
    builder = WorkflowBuilder(schema)
    builder.basic(
        basic, over={"a1": "value", "t1": "minute"}, field=field,
        aggregate="sum",
    )
    if rolled is not None:
        builder.composite(
            rolled, over={"a1": "value", "t1": "hour"}
        ).from_children(basic, aggregate="sum")
    return builder.build()


@pytest.fixture(scope="module")
def pair(batch_schema):
    """Query A computes a basic; query B the same basic under another
    name plus a composite that reads it."""
    return {
        "A": _rolled(batch_schema, basic="minutes"),
        "B": _rolled(batch_schema, basic="base", rolled="hourly"),
    }


def _service(catalog, records, **kwargs):
    kwargs.setdefault(
        "limits",
        ServiceLimits(
            admission_window_ms=50.0, max_inflight=2, max_group_size=16
        ),
    )
    kwargs.setdefault("cluster_factory", lambda: fresh_cluster())
    return QueryService(catalog, records, **kwargs)


def _serve(service, requests):
    """Submit *requests* at once, drain, return the responses."""

    async def body():
        await service.start()
        answers = await asyncio.gather(
            *(service.submit(request) for request in requests)
        )
        await service.drain()
        return answers

    return asyncio.run(body())


class TestMerge:
    def test_a_copy_adds_nothing(self, batch_queries):
        first = _prefixed(batch_queries["Q6"], "q0")
        merged = merge(first, _prefixed(batch_queries["Q6"], "q1"))
        assert merged.measures == first.measures
        assert merged.shape == first.shape

    def test_nothing_new_returns_the_first_workflow(self, pair):
        first = _prefixed(pair["B"], "q0")
        assert merge(first, _prefixed(pair["B"], "q1")) is first
        assert merge(first, _prefixed(pair["A"], "q2")) is first

    def test_a_new_composite_reads_the_existing_measure(self, pair):
        first = _prefixed(pair["A"], "A")
        merged = merge(first, _prefixed(pair["B"], "B"))
        assert merged.names == ("A/minutes", "B/hourly")
        (hourly,) = merged.composite_measures()
        assert hourly.inputs[0].source is first.measure("A/minutes")
        assert hourly.signature == pair["B"].measure("hourly").signature

    def test_shape_is_the_union_of_shapes(self, batch_queries):
        for left in ("Q2", "Q3", "Q6"):
            for right in ("Q2", "Q4", "Q6"):
                a = _prefixed(batch_queries[left], "a")
                b = _prefixed(batch_queries[right], "b")
                assert merge(a, b).shape == tuple(
                    sorted(set(a.shape) | set(b.shape))
                )

    def test_plans_do_not_move(self, batch_queries):
        """The deduplicated workflow plans exactly as the one holding
        every member's measures: repeats add no key and no load."""
        optimizer = Optimizer()
        components = [
            (name, component)
            for name, workflow in sorted(batch_queries.items())
            for component in connected_components(workflow)
        ]
        for index, (left, a) in enumerate(components):
            for right, b in components[index:]:
                a_ = _prefixed(a, "a" + left)
                b_ = _prefixed(b, "b" + right)
                full = Workflow(a_.schema, a_.measures + b_.measures)
                deduped = optimizer.plan(merge(a_, b_), N_RECORDS, 8)
                assert deduped.describe() == optimizer.plan(
                    full, N_RECORDS, 8
                ).describe()


class TestSplit:
    def test_every_member_owns_its_tables(self, pair, batch_records):
        """Each member gets its own read-only table object over the one
        computed table: writes raise and leave every peer as it was."""
        units = [
            BatchUnit(query, _prefixed(pair[name], query), None)
            for query, name in (("q0", "B"), ("q1", "B"), ("q2", "A"))
        ]
        workflow = units[0].component
        for unit in units[1:]:
            workflow = merge(workflow, unit.component)
        group = ShareGroup(units, workflow, None)
        assert group.shared_measures == 3
        split = split_by_query(
            group, evaluate_centralized(workflow, batch_records)
        )
        assert set(split) == {"q0", "q1", "q2"}
        tables = [t for by_name in split.values() for t in by_name.values()]
        assert len({id(table) for table in tables}) == len(tables) == 5
        assert all(refuses_writes(table) for table in tables)
        assert split["q2"]["minutes"].values == split["q0"]["base"].values
        coords = next(iter(split["q0"]["base"].coords()))
        before = split["q1"]["base"][coords]
        with pytest.raises(TypeError):
            split["q0"]["base"][coords] = "changed"
        assert split["q1"]["base"][coords] == before
        assert split["q2"]["minutes"][coords] == before
        copy = dict(split["q0"]["base"].values)
        copy[coords] = "changed"
        assert split["q0"]["base"][coords] == before


class TestAdmission:
    def test_a_duplicate_reuses_the_groups_plan(self, batch_queries):
        optimizer = Optimizer()
        controller = AdmissionController(
            optimizer, N_RECORDS, NUM_REDUCERS, window=1.0
        )
        workflow = batch_queries["Q3"]
        solo = controller.solo_plan(workflow)
        group = controller.offer(
            BatchUnit("q0", _prefixed(workflow, "q0"), solo), now=0.0
        )
        joined = controller.offer(
            BatchUnit("q1", _prefixed(workflow, "q1"), solo), now=0.0
        )
        assert joined is group
        assert group.plan is solo
        assert all(name.startswith("q0/") for name in group.workflow.names)
        assert group.shared_measures == len(workflow)


class TestDedupeIsObservable:
    """k copies of one query from k tenants do one copy's reduce work."""

    COPIES = 4

    def test_service(self, batch_queries, batch_records):
        workflow = batch_queries["Q3"]

        def run(copies):
            telemetry = TelemetryRegistry()
            service = _service(
                {"Q3": workflow}, batch_records, telemetry=telemetry
            )
            responses = _serve(
                service,
                [
                    QueryRequest("Q3", workflow, tenant=f"t{index}")
                    for index in range(copies)
                ],
            )
            return responses, telemetry.counters, service.report()

        solo, solo_counters, _ = run(1)
        responses, counters, report = run(self.COPIES)
        assert counters["serve.groups_dispatched"] == 1
        # Every copy's every component joined without adding a measure.
        assert report.admission["free_joins"] == (self.COPIES - 1) * len(
            connected_components(workflow)
        )
        assert counters["job.reduce_output_records"] == (
            solo_counters["job.reduce_output_records"]
        )
        assert counters["serve.shared_measures"] == (
            (self.COPIES - 1) * len(workflow)
        )
        oracle = typed(evaluate_centralized(workflow, batch_records))
        for response in responses:
            assert response.ok
            assert len(response.group_queries) == 1
            assert typed(response.result) == oracle
        # No member can change another's answer: writes raise.
        coords = next(iter(responses[0].result["ctr"].coords()))
        with pytest.raises(TypeError):
            responses[0].result["ctr"][coords] = "changed"
        for response in responses:
            assert typed(response.result) == oracle

    def test_batch(self, batch_queries, batch_records):
        workflow = batch_queries["Q3"]
        solo = BatchEvaluator(fresh_cluster()).evaluate(
            {"Q3": workflow}, batch_records
        )
        batch = BatchEvaluator(fresh_cluster()).evaluate(
            {f"t{index}": workflow for index in range(self.COPIES)},
            batch_records,
        )
        assert len(batch.jobs) == len(solo.jobs) == 1
        (job,) = batch.jobs
        assert job.job.counters.reduce_output_records == (
            solo.jobs[0].job.counters.reduce_output_records
        )
        assert job.job.counters.extra["batch.shared_measures"] == (
            (self.COPIES - 1) * len(workflow)
        )
        oracle = typed(evaluate_centralized(workflow, batch_records))
        for result in batch.results.values():
            assert typed(result) == oracle


class TestAnswersUnchanged:
    def _check(self, pair, records, results):
        for name, result in results.items():
            query = name.partition("-")[0]
            assert typed(result) == typed(
                evaluate_centralized(pair[query], records)
            ), name

    def test_batch_composite_over_a_duplicated_basic(
        self, pair, batch_records
    ):
        batch = BatchEvaluator(fresh_cluster()).evaluate(
            pair, batch_records
        )
        (group,) = batch.plan.groups
        assert group.shared_measures == 1
        self._check(pair, batch_records, batch.results)

    def test_service_composite_over_a_duplicated_basic(
        self, pair, batch_records
    ):
        telemetry = TelemetryRegistry()
        service = _service(pair, batch_records, telemetry=telemetry)
        responses = _serve(
            service,
            [QueryRequest(name, pair[name]) for name in ("A", "B")],
        )
        assert all(r.ok and r.group_queries == ["A", "B"] for r in responses)
        assert telemetry.counters["serve.shared_measures"] == 1
        self._check(
            pair, batch_records, {r.name: r.result for r in responses}
        )

    def test_centralized_fallback(
        self, pair, batch_records, monkeypatch
    ):
        def broken(self, workflow, plan, cancel):
            raise RuntimeError("injected backend failure")

        monkeypatch.setattr(daemon_module._Execution, "run_group", broken)
        service = _service(
            pair, batch_records,
            breaker=BreakerConfig(threshold=1, cooldown_s=60.0),
        )
        requests = [
            QueryRequest(name, pair[name], tenant=f"t{index}")
            for index, name in enumerate(["B", "A", "B", "A"])
        ]
        responses = _serve(service, requests)
        for response in responses:
            assert response.ok, response.error
            assert response.served_by == ["fallback"]
            assert len(response.group_queries) == 2
            assert all(
                refuses_writes(table)
                for table in response.result.tables.values()
            )
        self._check(
            pair, batch_records,
            {f"{r.name}-{i}": r.result for i, r in enumerate(responses)},
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.sampled_from(["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]),
            min_size=2, max_size=8,
        )
    )
    def test_random_multisets_of_catalog_queries(
        self, batch_queries, batch_records, oracles, draw
    ):
        queries = {
            f"{name}-{index}": batch_queries[name]
            for index, name in enumerate(draw)
        }
        batch = BatchEvaluator(fresh_cluster()).evaluate(
            queries, batch_records
        )
        for name, result in batch.results.items():
            assert typed(result) == oracles[name.partition("-")[0]]
        tables = [
            table
            for result in batch.results.values()
            for table in result.tables.values()
        ]
        assert len({id(table) for table in tables}) == len(tables)
        assert all(refuses_writes(table) for table in tables)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.sampled_from(["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]),
            min_size=2, max_size=10,
        ),
        st.sampled_from([1, 2, 8]),
    )
    def test_random_bursts_through_the_service(
        self, batch_queries, batch_records, oracles, draw, max_group_size
    ):
        """Duplicates ride free at every cap, and every answer stays
        exact and read-only."""
        service = _service(
            batch_queries, batch_records,
            limits=ServiceLimits(
                admission_window_ms=5.0, max_inflight=2,
                max_group_size=max_group_size,
            ),
        )
        responses = _serve(
            service,
            [
                QueryRequest(name, batch_queries[name], tenant=f"t{index}")
                for index, name in enumerate(draw)
            ],
        )
        for response in responses:
            assert response.ok, response.error
            assert response.served_by == ["group"] * len(
                connected_components(batch_queries[response.name])
            )
            assert typed(response.result) == oracles[response.name]
            assert all(
                refuses_writes(table)
                for table in response.result.tables.values()
            )


@pytest.fixture(scope="module")
def oracles(batch_queries, batch_records):
    return {
        name: typed(evaluate_centralized(workflow, batch_records))
        for name, workflow in batch_queries.items()
    }
