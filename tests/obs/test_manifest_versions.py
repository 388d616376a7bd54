"""Every manifest schema version (v1..v9) must keep loading.

``repro stats`` and ``repro diff`` read manifests written by older
builds; these tests freeze a representative document per version and
round-trip it through load/write/summary/diff.
"""

import io
import json
from collections import Counter

import pytest

from repro.mapreduce.counters import JobCounters, PhaseBreakdown
from repro.obs.diff import diff_manifests
from repro.obs.manifest import (
    SCHEMA_VERSION,
    RunManifest,
    breakdown_to_dict,
    counters_to_dict,
)


def _base_document() -> dict:
    """The fields every schema version has carried since v1."""
    counters = JobCounters(
        map_input_records=1000,
        map_output_records=1150,
        map_tasks=4,
        reduce_tasks=2,
        shuffle_bytes=9200,
        extra=Counter({"stragglers": 1}),
    )
    breakdown = PhaseBreakdown(
        map=1.0, shuffle=0.5, framework_sort=0.25, group_sort=0.25,
        evaluate=1.0,
    )
    return {
        "query": "measure m over a:value = sum(v)",
        "plan": "<a:value> cf=2",
        "response_time": 3.0,
        "map_makespan": 1.0,
        "reduce_makespan": 2.0,
        "counters": counters_to_dict(counters),
        "breakdown": breakdown_to_dict(breakdown),
        "reducer_loads": [600, 550],
        "load_imbalance": 600 / 575,
        "config": {"machines": 2},
        "environment": {"python": "3.x"},
        # v1-v8 only: the retired second registry's snapshot.
        "metrics": {
            "counters": {"job.map_input_records": 1000},
            "gauges": {"optimizer.predicted_max_load": 580.0},
            "histograms": {
                "job.reducer_load": {
                    "count": 2, "min": 550, "max": 600, "mean": 575.0,
                    "p50": 600, "p99": 600, "exact": True,
                },
            },
        },
        "created_at": "2026-01-01T00:00:00+0000",
    }


def document_for_version(version: int) -> dict:
    data = _base_document()
    data["schema_version"] = version
    if version >= 9:
        del data["metrics"]
    if version >= 2:
        data["calibration"] = {
            "predicted_max_load": 580.0,
            "actual_max_load": 600.0,
            "max_load_error": -0.033,
            "predicted_shipped_records": 1150.0,
            "actual_shipped_records": 1150.0,
            "shipped_records_error": 0.0,
            "predicted_shuffle_bytes": 9200.0,
            "actual_shuffle_bytes": 9200.0,
            "shuffle_bytes_error": 0.0,
            "predicted_blocks": 8,
            "actual_blocks": 8,
            "blocks_error": 0.0,
            "early_aggregation": False,
            "load_imbalance": 600 / 575,
            "histogram": {},
            "components": [],
        }
    if version >= 3:
        data["batch"] = {
            "queries": ["qa", "qb"],
            "groups": [{"queries": ["qa", "qb"], "succeeded": True}],
            "dispositions": {"execute": 2},
            "jobless_queries": [],
            "cache": {"hits": 0, "misses": 2, "stores": 2},
        }
    if version >= 4:
        data["workers"] = {
            "w101": {
                "seq": 4,
                "counters": {"tasks": 4, "rows": 500, "blocks": 8},
                "resources": {
                    "pid": 101,
                    "cpu_seconds": 0.5,
                    "rss_bytes": 20 * 1024 * 1024,
                    "gc_collections": 3,
                },
            },
            "w102": {
                "seq": 4,
                "counters": {"tasks": 4, "rows": 500, "blocks": 8},
                "resources": {
                    "pid": 102,
                    "cpu_seconds": 0.4,
                    "rss_bytes": 19 * 1024 * 1024,
                    "gc_collections": 2,
                },
            },
        }
        data["telemetry"] = {
            "seq": 2,
            "final": True,
            "counters": {"job.completed": 1},
        }
    if version >= 5:
        data["batch"]["resumed_components"] = 1
        data["serving"] = {
            "arrivals": 40,
            "completed": 35,
            "shed": {"queue_full": 3, "quota": 2},
            "deadline_missed": 0,
            "late": 1,
            "errors": 0,
            "fallbacks": 2,
            "breaker_trips": 1,
            "groups_dispatched": 12,
            "grouped_queries": 30,
            "admission": {
                "offered": 35,
                "groups_opened": 12,
                "merges_accepted": 18,
                "merges_rejected": 5,
                "merges_infeasible": 0,
                "dispatched_window": 9,
                "dispatched_stale": 2,
                "dispatched_full": 1,
                "dispatched_flush": 0,
                "predicted_savings": 1234.0,
            },
            "queue": {"max_depth": 16, "peak_depth": 7, "rejected": 3},
            "quotas": {"enabled": True, "rejections": {"tenant-1": 2}},
            "cache": {"hits": 10, "misses": 25, "stores": 20,
                      "corrupt": 0, "store_errors": 0, "evictions": 4},
            "latency_ms": {"count": 35, "p50": 40.0, "p95": 90.0,
                           "p99": 120.0, "max": 150.0, "mean": 48.0},
            "drained": True,
        }
    if version >= 6:
        data["tracing"] = {
            "phases": ["queue_wait", "map", "reduce"],
            "queries": {
                "q-000001": {
                    "query": "measure m over a:value = sum(v)",
                    "trace_id": "q-000001",
                    "tenant": "tenant-1",
                    "status": "ok",
                    "total_ms": 42.0,
                    "residual_ms": 0.5,
                    "phases": {"queue_wait": 1.5, "map": 30.0,
                               "reduce": 10.0},
                },
            },
            "complete": 1,
            "total": 1,
            "tenants": {
                "tenant-1": {
                    "queries": 1,
                    "mean_total_ms": 42.0,
                    "mean_residual_ms": 0.5,
                    "mean_phase_ms": {"queue_wait": 1.5, "map": 30.0,
                                      "reduce": 10.0},
                },
            },
        }
    if version >= 8:
        data["incremental"] = {
            "old_fingerprint": "a" * 32,
            "new_fingerprint": "b" * 32,
            "delta_records": 500,
            "partition": "c" * 32,
            "duration": 0.042,
            "partitions": 3,
            "verified": True,
            "outcomes": [
                {
                    "measure": "S1",
                    "signature": "d" * 32,
                    "classification": "patchable",
                    "action": "patched",
                    "reason": "",
                    "rows": 120,
                    "recomputed_regions": 0,
                },
                {
                    "measure": "S4",
                    "signature": "e" * 32,
                    "classification": "regional",
                    "action": "regional",
                    "reason": "",
                    "rows": 118,
                    "recomputed_regions": 14,
                },
            ],
        }
    if version >= 7:
        data["slo"] = {
            "window_seconds": 60.0,
            "tenants": {
                "tenant-1": {
                    "objective_ms": 100.0,
                    "target": 0.95,
                    "good": 33,
                    "bad": 2,
                    "window_total": 20,
                    "window_bad": 1,
                    "burn_rate": 1.0,
                },
            },
        }
    return data


VERSIONS = [1, 2, 3, 4, 5, 6, 7, 8, 9]


@pytest.mark.parametrize("version", VERSIONS)
class TestVersionRoundTrip:
    def test_from_dict_and_back(self, version):
        manifest = RunManifest.from_dict(document_for_version(version))
        assert manifest.schema_version == version
        rebuilt = RunManifest.from_dict(manifest.to_dict())
        assert rebuilt.to_dict() == manifest.to_dict()

    def test_write_and_load_stream(self, version):
        manifest = RunManifest.from_dict(document_for_version(version))
        buffer = io.StringIO()
        manifest.write(buffer)
        loaded = RunManifest.load(io.StringIO(buffer.getvalue()))
        assert loaded.to_dict() == manifest.to_dict()

    def test_write_and_load_path(self, version, tmp_path):
        path = str(tmp_path / f"manifest_v{version}.json")
        manifest = RunManifest.from_dict(document_for_version(version))
        manifest.write(path)
        assert RunManifest.load(path).to_dict() == manifest.to_dict()

    def test_summary_renders(self, version):
        summary = RunManifest.from_dict(
            document_for_version(version)
        ).summary()
        assert f"schema v{version}" in summary
        if version >= 3:
            assert "batch" in summary
        if version >= 4:
            assert "workers: 2 processes" in summary
            assert "w101" in summary
        if version >= 5:
            assert "serving: 40 arrivals" in summary
            assert "queue_full=3" in summary
            assert "resumed from cache: 1" in summary
        if version >= 6:
            assert "ledger: 1 queries attributed, 1 within tolerance" in (
                summary)
            assert "tenant-1: 1 queries, mean 42.0ms" in summary
            assert "map 30.0ms" in summary
        if version >= 7:
            assert "slo tenant-1: 100ms @ 95.00%" in summary
            assert "33 good / 2 bad, burn 1.00x" in summary
        if version >= 8:
            assert ("incremental: 500 appended records, 2 cached "
                    "measures, partition chain 3 long, verified "
                    "bit-identical") in summary
            assert "S4: regional -> regional" in summary
            assert "14 anchors re-evaluated" in summary

    def test_self_diff_is_clean(self, version):
        manifest = RunManifest.from_dict(document_for_version(version))
        diff = diff_manifests(manifest, manifest, threshold=0.0)
        assert not diff.has_regressions
        assert diff.changed() == []


class TestVersionGuards:
    def test_older_fields_default_empty(self):
        manifest = RunManifest.from_dict(document_for_version(1))
        assert manifest.calibration == {}
        assert manifest.batch == {}
        assert manifest.workers == {}
        assert manifest.telemetry == {}
        assert manifest.serving == {}
        assert manifest.tracing == {}
        assert manifest.slo == {}
        assert manifest.incremental == {}

    @pytest.mark.parametrize("version", VERSIONS[:-1])
    def test_metrics_section_dropped_silently(self, version, caplog):
        data = document_for_version(version)
        assert data["metrics"]["counters"]
        with caplog.at_level("WARNING", logger="repro.obs.manifest"):
            manifest = RunManifest.from_dict(data)
        assert caplog.records == []
        assert "metrics" not in manifest.to_dict()
        assert manifest.reducer_loads == [600, 550]

    def test_unknown_fields_ignored(self):
        data = document_for_version(2)
        data["some_future_detail"] = {"x": 1}
        manifest = RunManifest.from_dict(data)
        assert manifest.schema_version == 2

    def test_newer_version_degrades_with_warning(self, caplog):
        data = document_for_version(3)
        data["schema_version"] = SCHEMA_VERSION + 1
        data["hologram"] = {"x": 1}
        with caplog.at_level("WARNING", logger="repro.obs.manifest"):
            manifest = RunManifest.from_dict(data)
        assert manifest.schema_version == SCHEMA_VERSION + 1
        assert not hasattr(manifest, "hologram")
        assert manifest.summary()
        warnings = [r for r in caplog.records if "newer" in r.getMessage()]
        assert len(warnings) == 1
        assert "hologram" in warnings[0].getMessage()

    def test_cross_version_diff_runs(self):
        old = RunManifest.from_dict(document_for_version(1))
        new = RunManifest.from_dict(document_for_version(4))
        diff = diff_manifests(old, new, threshold=0.0)
        assert json.dumps(diff.to_dict())
        assert diff.describe()
