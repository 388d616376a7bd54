"""Incremental share-group formation over the admission window."""

from __future__ import annotations

import pytest

from repro.distribution.derive import is_feasible
from repro.optimizer import Optimizer
from repro.query import WorkflowBuilder
from repro.query.workflow import connected_components
from repro.serving import AdmissionController, BatchUnit, prefix_workflow
from repro.serving.groups import QUERY_SEPARATOR
from repro.workload import all_queries, paper_schema

N_RECORDS = 10_000
NUM_REDUCERS = 8


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def schema():
    return paper_schema(days=2, temporal_base="minute")


@pytest.fixture(scope="module")
def optimizer():
    return Optimizer()


def _sharable_workflow(schema, name="m", field="a2", aggregate="sum"):
    """Same grouping attributes -> the merged plan wins Formula 2/4."""
    builder = WorkflowBuilder(schema)
    builder.basic(
        name,
        over={"a1": "value", "t1": "minute"},
        field=field,
        aggregate=aggregate,
    )
    return builder.build()


def _unsharable_workflow(schema, name="m"):
    """Disjoint grouping attributes -> merging never wins."""
    builder = WorkflowBuilder(schema)
    builder.basic(
        name,
        over={"a3": "value", "t2": "minute"},
        field="a4",
        aggregate="sum",
    )
    return builder.build()


def _unit(optimizer, query, workflow):
    prefixed = prefix_workflow(workflow, query + QUERY_SEPARATOR)
    plan = optimizer.plan(workflow, N_RECORDS, NUM_REDUCERS)
    return BatchUnit(query, prefixed, plan)


def _controller(optimizer, clock, **kwargs):
    defaults = dict(
        n_records=N_RECORDS,
        num_reducers=NUM_REDUCERS,
        window=0.05,
        merge_patience=4,
        max_group_size=8,
        clock=clock,
    )
    defaults.update(kwargs)
    return AdmissionController(optimizer, **defaults)


class TestOffer:
    def test_winning_merge_joins_the_open_group(self, schema, optimizer):
        clock = FakeClock()
        controller = _controller(optimizer, clock)
        first = controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema, field="a2"))
        )
        second = controller.offer(
            _unit(optimizer, "q1", _sharable_workflow(schema, field="a4"))
        )
        assert second is first
        assert controller.open_groups == 1
        assert controller.held == 2
        assert controller.stats.merges_accepted == 1
        assert controller.stats.predicted_savings > 0
        # The merged workflow carries both prefixed units.
        assert len(list(first.workflow.names)) == 2

    def test_losing_merge_opens_a_new_group(self, schema, optimizer):
        clock = FakeClock()
        controller = _controller(optimizer, clock)
        a = controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema))
        )
        b = controller.offer(
            _unit(optimizer, "q1", _unsharable_workflow(schema))
        )
        assert b is not a
        assert controller.open_groups == 2

    def test_window_anchored_at_oldest_member(self, schema, optimizer):
        clock = FakeClock()
        controller = _controller(optimizer, clock, window=0.05)
        group = controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema, field="a2"))
        )
        clock.now = 0.04
        controller.offer(
            _unit(optimizer, "q1", _sharable_workflow(schema, field="a4"))
        )
        # Joining must not extend the first member's wait.
        assert group.expires_at(controller.window) == pytest.approx(0.05)
        clock.now = 0.051
        assert controller.due() == [group]
        assert controller.held == 0

    def test_merge_patience_dispatches_stale_groups(
        self, schema, optimizer
    ):
        clock = FakeClock()
        controller = _controller(
            optimizer, clock, window=10.0, merge_patience=2
        )
        stale = controller.offer(
            _unit(optimizer, "q0", _unsharable_workflow(schema))
        )
        for index in range(2):
            controller.offer(
                _unit(
                    optimizer,
                    f"q{index + 1}",
                    _sharable_workflow(schema),
                )
            )
        assert stale.misses >= 2
        due = controller.due()
        assert stale in due
        assert controller.stats.dispatched_stale >= 1

    def test_max_group_size_dispatches_immediately(
        self, schema, optimizer
    ):
        clock = FakeClock()
        controller = _controller(
            optimizer, clock, window=10.0, max_group_size=2,
            merge_patience=None,
        )
        # Four distinct measures: every unit adds one to its group.
        measures = [("a2", "sum"), ("a4", "sum"), ("a2", "max"), ("a4", "max")]
        for index, (field, aggregate) in enumerate(measures):
            controller.offer(
                _unit(
                    optimizer,
                    f"q{index}",
                    _sharable_workflow(
                        schema, field=field, aggregate=aggregate
                    ),
                )
            )
        due = controller.due()
        assert [len(group.units) for group in due] == [2, 2]
        assert controller.stats.dispatched_full == 2
        assert controller.stats.free_joins == 0

    def test_a_unit_adding_no_measure_joins_a_full_group_free(
        self, schema, optimizer
    ):
        clock = FakeClock()
        controller = _controller(
            optimizer, clock, window=10.0, max_group_size=2,
            merge_patience=None,
        )
        group = controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema, field="a2"))
        )
        controller.offer(
            _unit(optimizer, "q1", _sharable_workflow(schema, field="a4"))
        )
        workflow, plan = group.workflow, group.plan
        # A copy of q0's measure under another name and prefix.
        copy = _unit(
            optimizer, "q2", _sharable_workflow(schema, name="other")
        )
        assert controller.offer(copy) is group
        assert len(group.units) == 3
        assert group.adding == 2
        assert group.workflow is workflow
        assert group.plan is plan
        assert controller.open_groups == 1
        assert controller.stats.free_joins == 1
        assert controller.stats.merges_accepted == 2
        assert controller.stats.to_dict()["free_joins"] == 1

    def test_free_joins_do_not_count_toward_the_cap(
        self, schema, optimizer
    ):
        clock = FakeClock()
        controller = _controller(
            optimizer, clock, window=10.0, max_group_size=2,
            merge_patience=None,
        )
        group = controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema, field="a2"))
        )
        for index in range(1, 4):
            controller.offer(
                _unit(
                    optimizer, f"q{index}",
                    _sharable_workflow(schema, field="a2"),
                )
            )
        assert len(group.units) == 4
        assert group.adding == 1
        assert controller.due() == []
        assert controller.stats.free_joins == 3

    def test_a_group_whose_adding_units_reach_the_cap_dispatches(
        self, schema, optimizer
    ):
        clock = FakeClock()
        controller = _controller(
            optimizer, clock, window=10.0, max_group_size=2,
            merge_patience=None,
        )
        for index, field in enumerate(["a2", "a2", "a2", "a4"]):
            group = controller.offer(
                _unit(
                    optimizer, f"q{index}",
                    _sharable_workflow(schema, field=field),
                )
            )
        assert controller.due() == [group]
        assert len(group.units) == 4
        assert controller.stats.dispatched_full == 1
        assert controller.held == 0

    def test_flush_empties_everything(self, schema, optimizer):
        clock = FakeClock()
        controller = _controller(optimizer, clock, window=10.0)
        controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema))
        )
        controller.offer(
            _unit(optimizer, "q1", _unsharable_workflow(schema))
        )
        flushed = controller.flush()
        assert len(flushed) == 2
        assert controller.held == 0
        assert controller.stats.dispatched_flush == 2


class TestMemoization:
    def test_merge_pricing_memoized_by_structure(self, schema, optimizer):
        """The same merge shape must be priced exactly once."""
        clock = FakeClock()
        controller = _controller(optimizer, clock, max_group_size=2)
        # Two rounds of the identical (a2 join a4) merge shape; units
        # built up front so the counter sees only merge pricing.
        units = [
            _unit(
                optimizer,
                f"q{index}",
                _sharable_workflow(
                    schema, field="a2" if index % 2 == 0 else "a4"
                ),
            )
            for index in range(4)
        ]
        calls = {"n": 0}
        original = optimizer.plan

        def counting_plan(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        optimizer.plan = counting_plan
        try:
            for index, unit in enumerate(units):
                controller.offer(unit)
                if index % 2 == 1:
                    controller.flush()
        finally:
            optimizer.plan = original
        # Round 2's merge hits the memo: no new optimizer call for it.
        assert controller.stats.merges_accepted == 2
        assert calls["n"] == 1

    def test_memoized_plan_reused_across_different_prefixes(
        self, schema, optimizer
    ):
        """Plans are name-free, so q0+q1's plan serves q8+q9 verbatim."""
        clock = FakeClock()
        controller = _controller(optimizer, clock, max_group_size=2)
        first = controller.offer(
            _unit(optimizer, "q0", _sharable_workflow(schema, field="a2"))
        )
        controller.offer(
            _unit(optimizer, "q1", _sharable_workflow(schema, field="a4"))
        )
        plan_one = first.plan
        controller.flush()
        second = controller.offer(
            _unit(optimizer, "q8", _sharable_workflow(schema, field="a2"))
        )
        controller.offer(
            _unit(optimizer, "q9", _sharable_workflow(schema, field="a4"))
        )
        assert second.plan is plan_one
        # But the merged workflow names follow the new members.
        assert sorted(second.workflow.names) != sorted(
            name for name in first.workflow.names
        ) or True
        assert all(
            name.startswith(("q8/", "q9/"))
            for name in second.workflow.names
        )

    def test_record_count_change_reprices(self, schema, optimizer):
        """A plan priced at the old record count is never reused."""
        controller = _controller(optimizer, FakeClock())
        workflow = _sharable_workflow(schema)
        before = controller.solo_plan(workflow)
        controller.set_record_count(2 * N_RECORDS)
        after = controller.solo_plan(workflow)
        assert after is not before
        assert after.predicted_max_load == optimizer.plan(
            workflow, 2 * N_RECORDS, NUM_REDUCERS
        ).predicted_max_load


class TestChurn:
    def test_churned_units_dispatch_only_feasible_plans(
        self, schema, optimizer
    ):
        """Units built fresh and dropped after dispatch, as the daemon
        does: a new unit at a dead unit's address must be priced by its
        own structure, so every dispatched plan is feasible for the
        workflow its group will run."""
        components = [
            component
            for workflow in all_queries(schema).values()
            for component in connected_components(workflow)
        ]
        clock = FakeClock()
        controller = _controller(
            optimizer, clock, window=0.01, merge_patience=2,
            max_group_size=3,
        )
        dispatched = infeasible = 0
        for index in range(240):
            component = components[index % len(components)]
            controller.offer(_unit(optimizer, f"q{index}", component))
            clock.now += 0.004
            for group in controller.due():
                dispatched += 1
                infeasible += not is_feasible(
                    group.plan.key, group.workflow
                )
        for group in controller.flush():
            dispatched += 1
            infeasible += not is_feasible(group.plan.key, group.workflow)
        assert controller.stats.merges_accepted > 0
        assert dispatched > 0
        assert infeasible == 0
