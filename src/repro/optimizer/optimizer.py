"""The distribution-scheme optimizer (Section IV).

Given a workflow, the optimizer derives the minimal feasible key,
enumerates the candidate keys (one annotated attribute kept at a time,
plus the non-overlapping fallback), picks each candidate's clustering
factor from the analytical model, and returns the plan minimizing the
predicted heaviest reducer load.  Optional run-time refinements:

* ``min_blocks_per_reducer`` -- the skew heuristic capping ``cf`` so that
  every reducer is expected to receive at least X blocks;
* sampling -- when a record sample is supplied and sampling is enabled,
  the diversified candidates are judged by simulated dispatch instead of
  the model (Section V);
* a :class:`~repro.optimizer.skew.KeyCache` -- previously good keys are
  reused when still feasible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cube.records import Record
from repro.obs.tracer import NULL_TRACER
from repro.query.workflow import Workflow, connected_components
from repro.distribution.clustering import BlockScheme
from repro.distribution.derive import (
    candidate_keys_annotated,
    minimal_feasible_key,
)
from repro.distribution.keys import DistributionKey
from repro.optimizer.costmodel import (
    expected_max_load,
    expected_max_load_overlap,
    optimal_clustering_factor,
)
from repro.optimizer.decisions import (
    CandidateDecision,
    ComponentDecision,
    QueryDecision,
    SamplingDecision,
)
from repro.optimizer.skew import (
    KeyCache,
    diversify_schemes,
    sample_records,
    sampled_dispatch_table,
    scale_loads,
)


logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptimizerConfig:
    """Tunables of the plan search.

    *objective* selects what the search minimizes: ``"response_time"``
    (the paper's target -- the heaviest reducer's load, Formulae 2/4) or
    ``"total_work"`` (bytes shipped and processed across the cluster --
    batch-oriented; picks the largest clustering factor that still gives
    every reducer at least ``max(1, min_blocks_per_reducer)`` blocks).
    """

    min_blocks_per_reducer: int = 0
    use_sampling: bool = False
    sample_size: int = 2000
    sample_seed: int = 13
    objective: str = "response_time"

    def __post_init__(self):
        if self.objective not in ("response_time", "total_work"):
            raise ValueError(
                f"unknown objective {self.objective!r}; choose "
                "'response_time' or 'total_work'"
            )
        if self.objective == "total_work" and self.use_sampling:
            # Sampled dispatch ranks candidates by max reducer load --
            # the response-time criterion -- which would silently
            # override the total-work objective.
            raise ValueError(
                "objective='total_work' cannot be combined with "
                "use_sampling (sampling ranks by max load)"
            )


@dataclass
class Plan:
    """A chosen distribution scheme plus the optimizer's expectations."""

    scheme: BlockScheme
    num_reducers: int
    predicted_max_load: float
    strategy: str
    candidates_considered: int = 0
    sampled_loads: Optional[list[float]] = None
    alternatives: list[tuple[BlockScheme, float]] = field(default_factory=list)
    #: The structured decision trail behind this plan (every candidate
    #: considered, why each lost, the sampling tallies) -- what ``repro
    #: explain`` renders.  Always recorded by :class:`Optimizer`.
    decision: Optional[ComponentDecision] = None

    @property
    def key(self) -> DistributionKey:
        return self.scheme.key

    def describe(self) -> str:
        factors = self.scheme.clustering_factors
        cf_text = (
            ", ".join(f"{attr}: cf={cf}" for attr, cf in sorted(factors.items()))
            or "non-overlapping"
        )
        return (
            f"key {self.scheme.key!r} ({cf_text}), "
            f"{self.scheme.num_blocks()} blocks over "
            f"{self.num_reducers} reducers, predicted max load "
            f"{self.predicted_max_load:.0f} records [{self.strategy}]"
        )


@dataclass
class QueryPlan:
    """One plan per weakly connected component of the query workflow.

    Independent measure families do not constrain each other's keys, so
    the evaluator redistributes each component under its own scheme
    within a single job; records are shipped once per component.
    """

    subplans: list[tuple[Workflow, Plan]]

    def __post_init__(self):
        if not self.subplans:
            raise ValueError("a query plan needs at least one component")

    @property
    def num_reducers(self) -> int:
        return self.subplans[0][1].num_reducers

    @property
    def predicted_max_load(self) -> float:
        """Loads add up: every reducer serves blocks of every component."""
        return sum(plan.predicted_max_load for _wf, plan in self.subplans)

    @property
    def decision(self) -> QueryDecision:
        """The per-component decision trails, as one structured record."""
        return QueryDecision(
            [
                plan.decision
                for _wf, plan in self.subplans
                if plan.decision is not None
            ]
        )

    @property
    def single(self) -> Plan:
        """The sole component's plan; errors for multi-component queries."""
        if len(self.subplans) != 1:
            raise ValueError(
                f"query has {len(self.subplans)} components; inspect "
                ".subplans instead"
            )
        return self.subplans[0][1]

    @property
    def scheme(self):
        return self.single.scheme

    @property
    def key(self):
        return self.single.scheme.key

    def describe(self) -> str:
        if len(self.subplans) == 1:
            return self.single.describe()
        lines = [f"{len(self.subplans)} independent components:"]
        for component, plan in self.subplans:
            lines.append(f"  {list(component.names)}: {plan.describe()}")
        return "\n".join(lines)


class Optimizer:
    """Searches for the scheme minimizing the heaviest reducer load.

    *tracer* (a :class:`repro.obs.Tracer`, disabled by default) records
    one ``plan-component`` span per search, carrying every candidate's
    predicted load and the chosen scheme.
    """

    def __init__(self, config: OptimizerConfig | None = None, tracer=None):
        self.config = config or OptimizerConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- per-candidate costing ---------------------------------------------------

    def _max_cf(self, n_regions: int, num_reducers: int) -> Optional[int]:
        """Cap on cf from the minimum-blocks-per-reducer heuristic."""
        floor_blocks = self.config.min_blocks_per_reducer
        if floor_blocks <= 0:
            return None
        return max(1, n_regions // (num_reducers * floor_blocks))

    def cost_candidate(
        self,
        key: DistributionKey,
        n_records: int,
        num_reducers: int,
    ) -> tuple[BlockScheme, float]:
        """Best scheme for one candidate key and its predicted max load."""
        n_regions = key.granularity.region_count()
        annotated = key.annotated_attributes()
        if not annotated:
            if self.config.objective == "total_work":
                load = float(n_records)  # no duplication at all
            else:
                load = expected_max_load(n_records, n_regions, num_reducers)
            return BlockScheme(key), load
        if len(annotated) != 1:
            raise ValueError(
                "candidate keys must have at most one annotated attribute; "
                f"got {annotated}"
            )
        attr = annotated[0]
        span = key.component(attr).span
        if self.config.objective == "total_work":
            # Duplication is (span + cf) / cf: monotone decreasing in cf,
            # so take the largest cf keeping every reducer supplied.
            floor_blocks = max(1, self.config.min_blocks_per_reducer)
            cf = max(1, n_regions // (num_reducers * floor_blocks))
            load = n_records * (span + cf) / cf  # total shipped records
            return BlockScheme(key, {attr: cf}), load
        cf = optimal_clustering_factor(
            n_records,
            n_regions,
            num_reducers,
            span,
            max_cf=self._max_cf(n_regions, num_reducers),
        )
        load = expected_max_load_overlap(
            n_records, n_regions, num_reducers, span, cf
        )
        return BlockScheme(key, {attr: cf}), load

    # -- whole-plan search ------------------------------------------------------------

    def plan(
        self,
        workflow: Workflow,
        n_records: int,
        num_reducers: int,
        records: Optional[Sequence[Record]] = None,
        key_cache: Optional[KeyCache] = None,
        component_index: int = 0,
    ) -> Plan:
        """Choose the distribution scheme for *workflow*.

        *records* is only consulted when sampling is enabled; *key_cache*
        short-circuits the search when it holds a feasible key.
        *component_index* is the position of this workflow among the
        query's connected components -- the executor prefixes block keys
        with it, and simulated dispatch must hash the same keys.
        """
        if num_reducers <= 0:
            raise ValueError("num_reducers must be positive")

        with self.tracer.span(
            "plan-component",
            component=component_index,
            n_records=n_records,
            num_reducers=num_reducers,
        ) as span:
            plan = self._plan_traced(
                workflow, n_records, num_reducers, records, key_cache,
                component_index, span,
            )
        return plan

    def _candidate_decision(
        self,
        scheme: BlockScheme,
        load: float,
        provenance: str,
        floor_blocks: int,
    ) -> CandidateDecision:
        """One candidate's scorecard (chosen/rejection filled in later)."""
        key = scheme.key
        annotated = key.annotated_attributes()
        span = key.component(annotated[0]).span if annotated else 0
        blocks = scheme.num_blocks()
        return CandidateDecision(
            key=repr(key),
            provenance=provenance,
            n_regions=key.granularity.region_count(),
            span=span,
            clustering_factors=dict(scheme.clustering_factors),
            num_blocks=blocks,
            predicted_max_load=load,
            meets_min_blocks=(
                blocks >= floor_blocks if floor_blocks > 0 else None
            ),
        )

    def _score_scheme(
        self, scheme: BlockScheme, n_records: int, num_reducers: int
    ) -> float:
        """Formula 2/4 prediction for a scheme whose cf is already fixed."""
        key = scheme.key
        n_regions = key.granularity.region_count()
        annotated = key.annotated_attributes()
        if not annotated:
            return expected_max_load(n_records, n_regions, num_reducers)
        attr = annotated[0]
        return expected_max_load_overlap(
            n_records,
            n_regions,
            num_reducers,
            key.component(attr).span,
            scheme.clustering_factors.get(attr, 1),
        )

    def _plan_traced(
        self,
        workflow: Workflow,
        n_records: int,
        num_reducers: int,
        records: Optional[Sequence[Record]],
        key_cache: Optional[KeyCache],
        component_index: int,
        span,
    ) -> Plan:
        """The search body of :meth:`plan`, annotating *span* as it goes."""
        decision = ComponentDecision(
            component=component_index,
            measures=list(workflow.names),
            minimal_key=repr(minimal_feasible_key(workflow)),
            strategy="model",
            n_records=n_records,
            num_reducers=num_reducers,
            min_blocks_per_reducer=self.config.min_blocks_per_reducer,
        )
        floor_blocks = self.config.min_blocks_per_reducer * num_reducers

        cached = key_cache.find(workflow) if key_cache else None
        if cached is not None:
            scheme, load = self.cost_candidate(
                cached, n_records, num_reducers
            )
            decision.strategy = "cache"
            decision.notes.append(
                f"key cache hit: {cached!r} balanced a previous query and "
                "is feasible here, so the search was skipped"
            )
            candidate = self._candidate_decision(
                scheme, load, "reused from the key cache", floor_blocks
            )
            candidate.chosen = True
            decision.candidates.append(candidate)
            decision.chosen_key = repr(scheme.key)
            decision.chosen_clustering_factors = dict(
                scheme.clustering_factors
            )
            decision.predicted_max_load = load
            plan = Plan(
                scheme,
                num_reducers,
                load,
                strategy="cache",
                candidates_considered=1,
                decision=decision,
            )
            span.set(
                strategy="cache",
                chosen_key=repr(scheme.key),
                predicted_max_load=load,
                decision=decision.to_dict(),
            )
            return plan

        annotated_candidates = candidate_keys_annotated(workflow)
        provenance_of: dict[DistributionKey, str] = {}
        scored = []
        for key, provenance in annotated_candidates:
            scheme, load = self.cost_candidate(key, n_records, num_reducers)
            provenance_of[scheme.key] = provenance
            scored.append((scheme, load))
        filtered_out: list[tuple[BlockScheme, float]] = []
        if self.config.min_blocks_per_reducer > 0:
            # Prefer candidates meeting the minimum-blocks rule; only
            # when none does may the rule be violated.
            satisfying = [
                (scheme, load)
                for scheme, load in scored
                if scheme.num_blocks() >= floor_blocks
            ]
            if satisfying:
                kept = {id(scheme) for scheme, _load in satisfying}
                filtered_out = [
                    (scheme, load)
                    for scheme, load in scored
                    if id(scheme) not in kept
                ]
                scored = satisfying
            else:
                decision.notes.append(
                    f"no candidate reaches {floor_blocks} blocks "
                    f"({num_reducers} reducers x "
                    f"{self.config.min_blocks_per_reducer} "
                    "min-blocks-per-reducer); the rule was waived"
                )

        if self.config.use_sampling and records is not None:
            plan = self._plan_by_sampling(
                scored, provenance_of, decision, n_records, num_reducers,
                floor_blocks, records, component_index,
            )
        else:
            scheme, load = min(scored, key=lambda pair: pair[1])
            for cand_scheme, cand_load in scored:
                candidate = self._candidate_decision(
                    cand_scheme,
                    cand_load,
                    provenance_of.get(cand_scheme.key, ""),
                    floor_blocks,
                )
                if cand_scheme is scheme:
                    candidate.chosen = True
                elif cand_load > load:
                    candidate.rejection = (
                        f"predicted max load {cand_load:.0f} exceeds the "
                        f"winner's {load:.0f}"
                    )
                else:
                    candidate.rejection = (
                        f"predicted max load ties the winner's {load:.0f}; "
                        "the earlier candidate wins"
                    )
                decision.candidates.append(candidate)
            plan = Plan(
                scheme,
                num_reducers,
                load,
                strategy="model",
                candidates_considered=len(scored),
                alternatives=scored,
                decision=decision,
            )

        for cand_scheme, cand_load in filtered_out:
            candidate = self._candidate_decision(
                cand_scheme,
                cand_load,
                provenance_of.get(cand_scheme.key, ""),
                floor_blocks,
            )
            candidate.rejection = (
                f"violates the minimum-blocks rule: {candidate.num_blocks} "
                f"blocks < {floor_blocks} ({num_reducers} reducers x "
                f"{self.config.min_blocks_per_reducer})"
            )
            decision.candidates.append(candidate)

        decision.strategy = plan.strategy
        decision.chosen_key = repr(plan.scheme.key)
        decision.chosen_clustering_factors = dict(
            plan.scheme.clustering_factors
        )
        decision.predicted_max_load = plan.predicted_max_load

        if key_cache is not None:
            key_cache.store(plan.scheme.key)
        span.set(
            strategy=plan.strategy,
            chosen_key=repr(plan.scheme.key),
            clustering_factors=dict(plan.scheme.clustering_factors),
            predicted_max_load=plan.predicted_max_load,
            candidates=[
                {"key": repr(scheme.key), "predicted_max_load": load}
                for scheme, load in scored
            ],
            decision=decision.to_dict(),
        )
        logger.debug(
            "planned %s over %d candidates: %s",
            list(workflow.names),
            plan.candidates_considered,
            plan.describe(),
        )
        return plan

    def _plan_by_sampling(
        self,
        scored: list[tuple[BlockScheme, float]],
        provenance_of: dict[DistributionKey, str],
        decision: ComponentDecision,
        n_records: int,
        num_reducers: int,
        floor_blocks: int,
        records: Sequence[Record],
        component_index: int,
    ) -> Plan:
        """Sampling-based selection, recording every candidate's tally."""
        sample = sample_records(
            records, self.config.sample_size, self.config.sample_seed
        )
        model_factors = {
            scheme.key: dict(scheme.clustering_factors)
            for scheme, _load in scored
        }
        diversified = diversify_schemes(scheme for scheme, _ in scored)
        if self.config.min_blocks_per_reducer > 0:
            # cf variants must not sidestep the minimum-blocks rule
            # the model-based candidates were filtered by.
            bounded = [
                scheme
                for scheme in diversified
                if scheme.num_blocks() >= floor_blocks
            ]
            if bounded:
                diversified = bounded
        table = sampled_dispatch_table(
            diversified, sample, num_reducers,
            key_prefix=(component_index,),
        )
        chosen, chosen_loads, best_max = None, None, None
        for scheme, loads in table:
            worst = max(loads, default=0)
            if best_max is None or worst < best_max:
                chosen, chosen_loads, best_max = scheme, loads, worst
        scaled = scale_loads(chosen_loads, len(sample), n_records)
        chosen_sampled_max = max(scaled, default=0.0)

        for scheme, loads in table:
            provenance = provenance_of.get(scheme.key, "")
            if scheme.clustering_factors != model_factors.get(scheme.key):
                provenance = (
                    (provenance + "; " if provenance else "")
                    + "cf variant from the diversification ladder "
                    f"(model suggested {model_factors.get(scheme.key)})"
                )
            candidate = self._candidate_decision(
                scheme,
                self._score_scheme(scheme, n_records, num_reducers),
                provenance,
                floor_blocks,
            )
            sampled = scale_loads(loads, len(sample), n_records)
            candidate.sampled_max_load = max(sampled, default=0.0)
            if scheme is chosen:
                candidate.chosen = True
            elif candidate.sampled_max_load > chosen_sampled_max:
                candidate.rejection = (
                    "sampled dispatch predicts max load "
                    f"{candidate.sampled_max_load:.0f}, above the winner's "
                    f"{chosen_sampled_max:.0f}"
                )
            else:
                candidate.rejection = (
                    "sampled dispatch ties the winner's max load "
                    f"{chosen_sampled_max:.0f}; the earlier candidate wins"
                )
            decision.candidates.append(candidate)
        decision.sampling = SamplingDecision(
            sample_size=len(sample),
            sample_seed=self.config.sample_seed,
            candidates_sampled=len(diversified),
            chosen_loads=scaled,
        )
        return Plan(
            chosen,
            num_reducers,
            chosen_sampled_max,
            strategy="sampling",
            candidates_considered=len(diversified),
            sampled_loads=scaled,
            alternatives=scored,
            decision=decision,
        )


    def plan_query(
        self,
        workflow: Workflow,
        n_records: int,
        num_reducers: int,
        records: Optional[Sequence[Record]] = None,
        key_cache: Optional[KeyCache] = None,
    ) -> QueryPlan:
        """Plan a whole query: one scheme per connected component."""
        return QueryPlan(
            [
                (
                    component,
                    self.plan(
                        component,
                        n_records,
                        num_reducers,
                        records=records,
                        key_cache=key_cache,
                        component_index=index,
                    ),
                )
                for index, component in enumerate(
                    connected_components(workflow)
                )
            ]
        )

