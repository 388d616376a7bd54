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
* it hits ``max_group_size`` members (dispatch immediately).

Merged plans are memoized by the members' structural measure
signatures, so a steady stream of the same tenant queries prices each
merge shape once -- the optimizer does not re-run per arrival.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.distribution.keys import DistributionError
from repro.optimizer.optimizer import Optimizer, Plan
from repro.query.measures import WorkflowError
from repro.query.workflow import Workflow
from repro.serving.groups import BatchUnit, ShareGroup
from repro.serving.signature import measure_signature

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
    #: Sum of the members' solo predicted loads (the sharing baseline).
    solo_load: float = 0.0
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
    disables early dispatch); *max_group_size* caps members per group.
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
        #: Structural-shape -> (plan | None, error) memo for merges.
        self._merge_memo: dict[tuple, tuple[Optional[Plan], str]] = {}
        self._signature_memo: dict[int, tuple] = {}

    # -- introspection ----------------------------------------------------

    @property
    def held(self) -> int:
        """Units currently waiting inside the window."""
        return sum(len(group.units) for group in self._open)

    @property
    def open_groups(self) -> int:
        return len(self._open)

    # -- the merge test ---------------------------------------------------

    def _shape(self, unit: BatchUnit) -> tuple:
        """Name-free structural key of one unit's measures."""
        memo = self._signature_memo.get(id(unit))
        if memo is None:
            memo = tuple(
                sorted(
                    measure_signature(measure)
                    for measure in unit.component.measures
                )
            )
            self._signature_memo[id(unit)] = memo
        return memo

    def _plan_joined(
        self, group: PendingGroup, unit: BatchUnit
    ) -> tuple[Optional[Workflow], Optional[Plan], str]:
        """Price *unit* joining *group*; memoized by structure."""
        shape = tuple(
            sorted(self._shape(member) for member in group.units)
            + [self._shape(unit)]
        )
        memoized = self._merge_memo.get(shape)
        workflow = None
        if memoized is not None:
            plan, error = memoized
            if plan is None:
                return None, None, error
            # The memoized plan is name-free; only the merged workflow
            # (which carries the prefixed names) must be rebuilt.
            workflow = Workflow(
                group.workflow.schema,
                list(group.workflow.measures)
                + list(unit.component.measures),
            )
            return workflow, plan, ""
        try:
            workflow = Workflow(
                group.workflow.schema,
                list(group.workflow.measures)
                + list(unit.component.measures),
            )
            plan = self.optimizer.plan(
                workflow, self.n_records, self.num_reducers
            )
        except (DistributionError, WorkflowError, ValueError) as exc:
            self._merge_memo[shape] = (None, str(exc))
            return None, None, str(exc)
        self._merge_memo[shape] = (plan, "")
        return workflow, plan, ""

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
        best = None  # (gain, group, workflow, plan)
        for group in self._open:
            if len(group.units) >= self.max_group_size:
                continue
            workflow, plan, error = self._plan_joined(group, unit)
            if plan is None:
                self.stats.merges_infeasible += 1
                continue
            gain = (
                group.plan.predicted_max_load + solo
            ) - plan.predicted_max_load
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, group, workflow, plan)
            elif gain <= 0:
                self.stats.merges_rejected += 1
        if best is not None:
            gain, group, workflow, plan = best
            group.units.append(unit)
            group.riders.append(member)
            group.workflow = workflow
            group.plan = plan
            group.solo_load += solo
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
            solo_load=solo,
            group_id=self._group_serial,
        )
        self._open.append(opened)
        self.stats.groups_opened += 1
        return opened

    # -- dispatch ---------------------------------------------------------

    def due(self, now: Optional[float] = None) -> list[PendingGroup]:
        """Remove and return every group whose hold is over.

        A group is due when its window expired, when it reached
        ``max_group_size``, or when ``merge_patience`` consecutive
        arrivals declined to join it (the merge stopped winning).
        """
        now = self.clock() if now is None else now
        ready: list[PendingGroup] = []
        still_open: list[PendingGroup] = []
        for group in self._open:
            if len(group.units) >= self.max_group_size:
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

    def next_deadline(self) -> Optional[float]:
        """The earliest window expiry among open groups (idle sleep aid)."""
        if not self._open:
            return None
        return min(group.expires_at(self.window) for group in self._open)
