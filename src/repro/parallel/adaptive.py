"""Adaptive evaluation: Section V's detect-then-replan loop, end to end.

The plain executor either trusts the analytical model or always pays for
sampling.  The adaptive evaluator does what the paper describes
operationally:

1. plan with the model (cheap, no data access);
2. run the mappers' *simulated dispatch* on a sample (the Map-Only pass
   Figure 4(d) shows to be a small fraction of the job);
3. if the predicted loads are balanced, run the model plan as-is;
   otherwise re-plan by sampling over diversified candidates and run
   the winner.

The decision, the sampled loads, and which path was taken are reported
so operators can audit why a plan was chosen.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from repro.cube.records import Record
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.dfs import DistributedFile
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.optimizer import Optimizer, QueryPlan
from repro.optimizer.skew import (
    detect_skew,
    diversify_schemes,
    load_imbalance,
    pick_by_sampling,
    sample_file_records,
    sample_records,
    simulate_dispatch,
)
from repro.query.workflow import Workflow
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.parallel.report import ParallelResult

logger = logging.getLogger(__name__)


@dataclass
class AdaptiveDecision:
    """Audit trail of one adaptive planning round."""

    skew_detected: bool
    sampled_loads: list[int]
    replanned: bool
    imbalance: float

    def describe(self) -> str:
        verdict = "replanned by sampling" if self.replanned else "kept model plan"
        return (
            f"sampled max/mean = {self.imbalance:.2f} -> "
            f"skew {'detected' if self.skew_detected else 'not detected'}; "
            f"{verdict}"
        )


@dataclass
class AdaptiveResult:
    """A parallel result plus the per-component adaptive decisions."""

    outcome: ParallelResult
    decisions: list[AdaptiveDecision]

    @property
    def result(self):
        return self.outcome.result

    @property
    def response_time(self) -> float:
        return self.outcome.response_time

    def describe(self) -> str:
        lines = [self.outcome.describe()]
        lines.extend(
            f"component {index}: {decision.describe()}"
            for index, decision in enumerate(self.decisions)
        )
        return "\n".join(lines)


class AdaptiveEvaluator:
    """Model-first evaluation with sampling only when skew shows up."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExecutionConfig | None = None,
        skew_threshold: float = 2.0,
        sample_size: int = 2000,
        sample_seed: int = 13,
        tracer=None,
    ):
        base = config or ExecutionConfig()
        if base.optimizer.use_sampling:
            raise ValueError(
                "AdaptiveEvaluator decides when to sample; configure it "
                "with a non-sampling OptimizerConfig"
            )
        if base.partitioner != "hash":
            raise ValueError(
                "adaptive re-planning predicts loads under the hash "
                "partitioner; use partitioner='hash'"
            )
        self.cluster = cluster
        self.config = base
        self.skew_threshold = skew_threshold
        self.sample_size = sample_size
        self.sample_seed = sample_seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._executor = ParallelEvaluator(cluster, base, tracer=self.tracer)

    def evaluate(
        self,
        workflow: Workflow,
        data: Sequence[Record] | DistributedFile,
    ) -> AdaptiveResult:
        """Evaluate *workflow*, auto-switching plans on detected skew."""
        if isinstance(data, DistributedFile):
            source: Sequence[Record] | DistributedFile = data
            n_records = data.num_records
            sample = sample_file_records(
                data, self.sample_size, self.sample_seed
            )
        else:
            records = list(data)
            source = records
            n_records = len(records)
            sample = sample_records(records, self.sample_size,
                                    self.sample_seed)

        num_reducers = self.config.num_reducers or self.cluster.reduce_slots
        optimizer = Optimizer(self.config.optimizer)
        model_plan = optimizer.plan_query(workflow, n_records, num_reducers)

        subplans = []
        decisions = []
        for index, (component, plan) in enumerate(model_plan.subplans):
            loads = simulate_dispatch(
                plan.scheme, sample, num_reducers, key_prefix=(index,)
            )
            skewed = detect_skew(loads, self.skew_threshold)
            imbalance = load_imbalance(loads)
            if skewed:
                candidates = diversify_schemes([plan.scheme])
                scheme, sampled = pick_by_sampling(
                    candidates, sample, num_reducers, key_prefix=(index,)
                )
                replanned = scheme is not plan.scheme
                if replanned:
                    plan = _with_scheme(plan, scheme, sampled, n_records,
                                        len(sample))
            else:
                replanned = False
            subplans.append((component, plan))
            decision = AdaptiveDecision(
                skew_detected=skewed,
                sampled_loads=loads,
                replanned=replanned,
                imbalance=imbalance,
            )
            decisions.append(decision)
            logger.info("component %d: %s", index, decision.describe())

        outcome = self._executor.evaluate(
            workflow, source, plan=QueryPlan(subplans)
        )
        return AdaptiveResult(outcome=outcome, decisions=decisions)


def _with_scheme(plan, scheme, sampled_loads, n_records, sample_size):
    from repro.optimizer.optimizer import Plan
    from repro.optimizer.skew import scale_loads

    scaled = scale_loads(sampled_loads, sample_size, n_records)
    return Plan(
        scheme=scheme,
        num_reducers=plan.num_reducers,
        predicted_max_load=max(scaled, default=0.0),
        strategy="adaptive",
        candidates_considered=plan.candidates_considered,
        sampled_loads=scaled,
    )
