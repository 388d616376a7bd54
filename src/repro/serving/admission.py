"""Incremental share-group formation over a sliding admission window.

``repro batch`` sees the whole batch at once and lets
:func:`~repro.serving.groups.form_share_groups` grind pairwise merges
to a fixed point.  A daemon sees queries one at a time, so sharing
becomes a *holding* decision: keep an arriving query's execute
component on ice for up to the admission window, hoping a partner
arrives whose merged plan wins the same Formula 2/4 test the batch
planner uses (merged predicted max reducer load strictly below the sum
of the members' solo loads).

The :class:`AdmissionController` keeps a set of open
:class:`PendingGroup`\\ s.  Each arriving unit joins the open group
with the largest predicted-load gain, or opens a new group when no
merge wins.  A group leaves the window and dispatches when:

* its window expires (``opened_at + window``, anchored at the OLDEST
  member -- joining a group never extends its wait);
* the merge stops winning: ``merge_patience`` consecutive arrivals
  failed to join it (more waiting is unlikely to pay);
* ``max_group_size`` of its units add measures (dispatch immediately).

Duplicates ride free.  A unit whose measures the group already computes
(its :attr:`~repro.query.workflow.Workflow.shape` is a subset of the
group's) joins without adding work: it joins even a full group, it does
not count toward ``max_group_size``, and it is not re-priced -- the
group's plan is its plan, and its gain is its solo load.  So the cap
bounds the work a group adds, not its arrivals, and the same dashboard
sent by many tenants runs as one group.

The controller is the daemon's one plan memo.  A plan depends only on
the workflow's name-free :attr:`~repro.query.workflow.Workflow.shape`
(its sorted distinct measure signatures), the record count and the
reducer count, so solo plans (:meth:`AdmissionController.solo_plan`)
and merged plans alike are memoized by shape -- a merge's shape is the
sorted union of its members' -- and a steady stream of the same tenant
queries prices each shape once.  The reducer count is
fixed for the controller's lifetime; :meth:`~AdmissionController.
set_record_count` is the one way to change the record count, and it
clears the memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.optimizer.optimizer import Optimizer, Plan
from repro.query.workflow import Workflow
from repro.serving.groups import BatchUnit, ShareGroup, merge, plan_merge

__all__ = ["AdmissionController", "AdmissionStats", "PendingGroup"]


@dataclass
class PendingGroup(ShareGroup):
    """A share group still forming inside the admission window."""

    #: Arrival time of the group's first member (window anchor).
    opened_at: float
    #: Daemon-side state of each unit's request, parallel to
    #: :attr:`units` (``members()`` stays the share group's own).
    riders: list[object] = field(default_factory=list)
    #: Consecutive arrivals that considered this group and went
    #: elsewhere; resets when a member joins.
    misses: int = 0
    #: Units that added measures (the opener included); the count
    #: ``max_group_size`` caps.  Free joins do not raise it.
    adding: int = 1
    #: Serial id unique within one controller (trace span attribute).
    group_id: int = 0
    #: Daemon clock when the group left the window for the ready
    #: queue; the ledger's queue_wait phase starts here.
    enqueued_at: Optional[float] = None
    #: Same instant on the trace wall clock (queued-span start).
    queued_wall: float = 0.0

    def expires_at(self, window: float) -> float:
        return self.opened_at + window


@dataclass
class AdmissionStats:
    """What the window did over the daemon's lifetime."""

    offered: int = 0
    groups_opened: int = 0
    merges_accepted: int = 0
    #: Accepted merges whose unit added no measure (a subset of
    #: ``merges_accepted``): they joined free, full groups included.
    free_joins: int = 0
    merges_rejected: int = 0
    merges_infeasible: int = 0
    dispatched_window: int = 0
    dispatched_stale: int = 0
    dispatched_full: int = 0
    dispatched_flush: int = 0
    #: Predicted records saved on the max reducer by accepted merges.
    predicted_savings: float = 0.0

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "groups_opened": self.groups_opened,
            "merges_accepted": self.merges_accepted,
            "free_joins": self.free_joins,
            "merges_rejected": self.merges_rejected,
            "merges_infeasible": self.merges_infeasible,
            "dispatched_window": self.dispatched_window,
            "dispatched_stale": self.dispatched_stale,
            "dispatched_full": self.dispatched_full,
            "dispatched_flush": self.dispatched_flush,
            "predicted_savings": self.predicted_savings,
        }


class AdmissionController:
    """Forms share groups incrementally from a stream of units.

    *window* is the maximum hold (seconds); *merge_patience* dispatches
    a group after that many consecutive non-joining arrivals (``None``
    disables early dispatch); *max_group_size* caps the units per group
    that add measures -- a unit whose measures the group already
    computes joins free, even a full group.
    The controller is clock-agnostic: callers pass ``now`` (the
    daemon's monotonic clock) to :meth:`offer` and :meth:`due`.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        n_records: int,
        num_reducers: int,
        window: float = 0.05,
        merge_patience: Optional[int] = 4,
        max_group_size: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.optimizer = optimizer
        self.n_records = n_records
        self.num_reducers = num_reducers
        self.window = window
        self.merge_patience = merge_patience
        self.max_group_size = max(1, max_group_size)
        self.clock = clock
        self.stats = AdmissionStats()
        self._group_serial = 0
        self._open: list[PendingGroup] = []
        #: Workflow shape -> its plan at ``n_records`` (``None``: no
        #: feasible shared key), for solo components and merges alike.
        self._plans: dict[tuple[str, ...], Optional[Plan]] = {}

    def set_record_count(self, n_records: int) -> None:
        """Price every later plan at *n_records*; forgets every plan
        priced at the old count."""
        self.n_records = n_records
        self._plans.clear()

    # -- introspection ----------------------------------------------------

    @property
    def held(self) -> int:
        """Units currently waiting inside the window."""
        return sum(len(group.units) for group in self._open)

    @property
    def open_groups(self) -> int:
        return len(self._open)

    # -- pricing --------------------------------------------------------

    def solo_plan(self, component: Workflow) -> Plan:
        """The plan for *component* evaluated alone, priced once per
        shape."""
        if component.shape not in self._plans:
            self._plans[component.shape] = self.optimizer.plan(
                component, self.n_records, self.num_reducers
            )
        return self._plans[component.shape]

    def _merged_plan(
        self, group: PendingGroup, unit: BatchUnit
    ) -> Optional[Plan]:
        """The plan for *unit* joining *group*, priced once per shape."""
        shape = tuple(
            sorted(set(group.workflow.shape).union(unit.component.shape))
        )
        if shape not in self._plans:
            _workflow, plan, _error = plan_merge(
                self.optimizer, group.workflow, unit.component,
                self.n_records, self.num_reducers,
            )
            self._plans[shape] = plan
        return self._plans[shape]

    # -- arrivals ---------------------------------------------------------

    def offer(
        self,
        unit: BatchUnit,
        member: object = None,
        now: Optional[float] = None,
    ) -> PendingGroup:
        """Admit one unit: join the best-gaining open group or open one.

        Returns the group the unit landed in (possibly freshly opened).
        Groups the unit did *not* join age toward their merge-patience
        dispatch.
        """
        now = self.clock() if now is None else now
        self.stats.offered += 1
        solo = unit.plan.predicted_max_load
        shape = set(unit.component.shape)
        best = None  # (gain, group, plan, free)
        for group in self._open:
            # A unit adding no measure rides on the group's plan.
            free = shape.issubset(group.workflow.shape)
            if free:
                plan = group.plan
            elif group.adding >= self.max_group_size:
                continue
            else:
                plan = self._merged_plan(group, unit)
            if plan is None:
                self.stats.merges_infeasible += 1
                continue
            gain = (
                group.plan.predicted_max_load + solo
            ) - plan.predicted_max_load
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, group, plan, free)
            elif gain <= 0:
                self.stats.merges_rejected += 1
        if best is not None:
            gain, group, plan, free = best
            group.units.append(unit)
            group.riders.append(member)
            if free:
                self.stats.free_joins += 1
            else:
                group.adding += 1
                group.workflow = merge(group.workflow, unit.component)
                group.plan = plan
            group.misses = 0
            self.stats.merges_accepted += 1
            self.stats.predicted_savings += gain
            for other in self._open:
                if other is not group:
                    other.misses += 1
            return group
        for other in self._open:
            other.misses += 1
        self._group_serial += 1
        opened = PendingGroup(
            units=[unit],
            workflow=unit.component,
            plan=unit.plan,
            opened_at=now,
            riders=[member],
            group_id=self._group_serial,
        )
        self._open.append(opened)
        self.stats.groups_opened += 1
        return opened

    # -- dispatch ---------------------------------------------------------

    def due(self, now: Optional[float] = None) -> list[PendingGroup]:
        """Remove and return every group whose hold is over.

        A group is due when its window expired, when ``max_group_size``
        of its units added measures, or when ``merge_patience`` consecutive
        arrivals declined to join it (the merge stopped winning).
        """
        now = self.clock() if now is None else now
        ready: list[PendingGroup] = []
        still_open: list[PendingGroup] = []
        for group in self._open:
            if group.adding >= self.max_group_size:
                self.stats.dispatched_full += 1
                ready.append(group)
            elif now >= group.expires_at(self.window):
                self.stats.dispatched_window += 1
                ready.append(group)
            elif (
                self.merge_patience is not None
                and group.misses >= self.merge_patience
            ):
                self.stats.dispatched_stale += 1
                ready.append(group)
            else:
                still_open.append(group)
        self._open = still_open
        return ready

    def flush(self) -> list[PendingGroup]:
        """Remove and return every open group (drain path)."""
        ready = self._open
        self._open = []
        self.stats.dispatched_flush += len(ready)
        return ready
