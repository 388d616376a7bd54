"""The batch contract: every answer bit-identical to its standalone run."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.local import evaluate_centralized
from repro.parallel import ExecutionConfig
from repro.serving import BatchEvaluator

from tests.serving.conftest import fresh_cluster


class TestBatchInvariance:
    def test_batch_matches_standalone(
        self, batch_queries, batch_records, solo_results
    ):
        result = BatchEvaluator(fresh_cluster()).evaluate(
            batch_queries, batch_records
        )
        assert set(result.results) == set(batch_queries)
        for name, solo in solo_results.items():
            assert result.results[name] == solo, name

    def test_batch_actually_shares(self, batch_queries, batch_records):
        result = BatchEvaluator(fresh_cluster()).evaluate(
            batch_queries, batch_records
        )
        # Q1..Q6 contain shareable structure: strictly fewer shared
        # jobs than queries, and every group ran exactly once.
        assert 0 < len(result.jobs) < len(batch_queries)
        assert all(o.succeeded and o.attempts == 1 for o in result.groups)

    def test_columnar_batch_matches_standalone(
        self, batch_queries, batch_records
    ):
        # Q1..Q6 are all vectorized, so every shared job takes the
        # batched map side; the answers are the centralized oracle's.
        result = BatchEvaluator(fresh_cluster()).evaluate(
            batch_queries, batch_records
        )
        for job in result.jobs:
            assert job.columnar.batch_tasks > 0
            assert job.columnar.fallback_tasks == 0
        for name, workflow in batch_queries.items():
            assert result.results[name] == evaluate_centralized(
                workflow, batch_records
            ), name

    def test_early_aggregation_rejected(self):
        with pytest.raises(ValueError, match="early_aggregation"):
            BatchEvaluator(
                fresh_cluster(), ExecutionConfig(early_aggregation=True)
            )

    def test_single_query_batch_matches(
        self, batch_queries, batch_records, solo_results
    ):
        result = BatchEvaluator(fresh_cluster()).evaluate(
            {"Q2": batch_queries["Q2"]}, batch_records
        )
        assert result.results["Q2"] == solo_results["Q2"]
        assert len(result.jobs) == 1


@pytest.mark.faults
class TestBatchUnderChaos:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_chaos_batch_matches_clean_standalone(
        self, seed, batch_queries, batch_records, solo_results
    ):
        cluster = fresh_cluster()
        cluster.install_faults(
            FaultPlan.random(seed, cluster.config.machines)
        )
        result = BatchEvaluator(cluster, group_retries=2).evaluate(
            batch_queries, batch_records
        )
        for name, solo in solo_results.items():
            assert result.results[name] == solo, (seed, name)
