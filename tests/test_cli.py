"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro.cli import main

WEBLOG_QUERY = """
measure M1 over keyword:word, time:minute = median(page_count)
measure M2 over keyword:word, time:hour = median(ad_count)
measure M3 over keyword:word, time:minute = ratio(self(M1), parent(M2))
measure M4 over keyword:word, time:minute = avg(window(M3, time, -9, 0))
"""

PAPER_QUERY = """
measure hourly over t1:hour = sum(a2)
measure moving over t1:hour = avg(window(hourly, t1, -9, 0))
"""


@pytest.fixture
def weblog_query_file(tmp_path):
    path = tmp_path / "weblog.cq"
    path.write_text(WEBLOG_QUERY)
    return str(path)


@pytest.fixture
def paper_query_file(tmp_path):
    path = tmp_path / "paper.cq"
    path.write_text(PAPER_QUERY)
    return str(path)


class TestPlan:
    def test_plan_weblog(self, weblog_query_file, capsys):
        code = main(
            ["plan", weblog_query_file, "--records", "10000",
             "--machines", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "<keyword:word, time:hour(-1,0)>" in out
        assert "candidates:" in out
        assert "chosen:" in out

    def test_plan_paper_schema(self, paper_query_file, capsys):
        code = main(
            ["plan", paper_query_file, "--schema", "paper", "--days", "20",
             "--records", "20000", "--machines", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t1:hour(-9,0)" in out


class TestRun:
    def test_run_and_export(self, weblog_query_file, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(
            ["run", weblog_query_file, "--records", "5000",
             "--machines", "6", "--days", "1", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "breakdown:" in out
        content = csv_path.read_text().splitlines()
        assert content[0] == "measure,region,value"
        assert len(content) > 100

    def test_run_naive(self, weblog_query_file, capsys):
        code = main(
            ["run", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1", "--naive"]
        )
        assert code == 0
        assert "jobs" in capsys.readouterr().out

    def test_run_sampling(self, paper_query_file, capsys):
        code = main(
            ["run", paper_query_file, "--schema", "paper", "--days", "20",
             "--records", "8000", "--machines", "8", "--skew", "--sampling"]
        )
        assert code == 0
        assert "sampling" in capsys.readouterr().out

    def test_run_early_aggregation(self, paper_query_file, capsys):
        code = main(
            ["run", paper_query_file, "--schema", "paper", "--days", "20",
             "--records", "5000", "--machines", "4", "--early-aggregation"]
        )
        assert code == 0


class TestChaos:
    def test_run_with_chaos_prints_recovery(self, weblog_query_file, capsys):
        code = main(
            ["run", weblog_query_file, "--records", "3000",
             "--machines", "10", "--days", "1", "--chaos", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: FaultPlan(seed=7" in out
        assert "recovery[map]:" in out
        assert "recovery[reduce]:" in out

    def test_chaos_answers_match_clean_run(self, weblog_query_file, tmp_path,
                                           capsys):
        clean_csv = tmp_path / "clean.csv"
        chaos_csv = tmp_path / "chaos.csv"
        args = ["run", weblog_query_file, "--records", "3000",
                "--machines", "10", "--days", "1"]
        assert main(args + ["--csv", str(clean_csv)]) == 0
        assert main(args + ["--chaos", "3", "--csv", str(chaos_csv)]) == 0
        capsys.readouterr()
        assert clean_csv.read_text() == chaos_csv.read_text()

    def test_trace_manifest_records_fault_plan(self, weblog_query_file,
                                               tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            ["trace", weblog_query_file, "--records", "3000",
             "--machines", "10", "--days", "1", "--chaos", "5",
             "--out", str(trace_path)]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert manifest["faults"]["plan"]["seed"] == 5
        assert "attempts" in manifest["faults"]["reduce"]

    def test_stats_renders_fault_section(self, weblog_query_file, tmp_path,
                                         capsys):
        trace_path = tmp_path / "trace.json"
        main(
            ["trace", weblog_query_file, "--records", "3000",
             "--machines", "10", "--days", "1", "--chaos", "5",
             "--out", str(trace_path)]
        )
        capsys.readouterr()
        code = main(["stats", str(tmp_path / "trace.manifest.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults: chaos seed 5" in out


class TestFailMachines:
    def test_static_failures_still_answer(self, weblog_query_file, capsys):
        code = main(
            ["run", weblog_query_file, "--records", "3000",
             "--machines", "10", "--days", "1", "--fail-machines", "2,4"]
        )
        assert code == 0
        assert "plan:" in capsys.readouterr().out

    def test_data_unavailable_is_one_actionable_line(self, weblog_query_file):
        # The DFS places 'query-input' replicas deterministically
        # (seed 7): on a 4-machine cluster the single block lands on
        # machines (3, 0, 1).  Failing exactly those machines makes
        # every replica unreachable.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", weblog_query_file, "--records", "3000",
                 "--machines", "4", "--days", "1",
                 "--fail-machines", "3,0,1"]
            )
        message = str(excinfo.value)
        assert "\n" not in message
        assert "data unavailable" in message
        assert "block 0" in message
        assert "machines down: [0, 1, 3]" in message
        assert "replication" in message

    def test_unknown_machine_rejected(self, weblog_query_file):
        with pytest.raises(SystemExit, match="no machine 99"):
            main(
                ["run", weblog_query_file, "--records", "100",
                 "--machines", "4", "--fail-machines", "99"]
            )

    def test_garbage_rejected(self, weblog_query_file):
        with pytest.raises(SystemExit, match="comma-separated"):
            main(
                ["run", weblog_query_file, "--records", "100",
                 "--machines", "4", "--fail-machines", "one,two"]
            )


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["plan", "/nonexistent/query.cq"])

    def test_parse_error_reported_with_path(self, tmp_path):
        path = tmp_path / "bad.cq"
        path.write_text("measure broken over keyword:word = blorp(")
        with pytest.raises(SystemExit, match="bad.cq"):
            main(["plan", str(path)])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_early_aggregation_of_holistic_measures_fails_in_one_line(
        self, weblog_query_file, command, tmp_path
    ):
        argv = [command, weblog_query_file, "--records", "200", "--days",
                "1", "--early-aggregation"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "t.json")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str)  # exit status 1
        assert "\n" not in message
        assert "--early-aggregation" in message
        assert "weblog.cq" in message

    @pytest.mark.parametrize(
        "command, flag, value",
        [("run", "columnar", "on"), ("serve", "kernels", "off")],
    )
    def test_removed_flags_fail_in_one_line(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, f"--{flag}", value])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "unrecognized arguments" in errors[0]


class TestDemo:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "M4" in out
        assert "plan:" in out


class TestPlanRenderOptions:
    def test_explain_and_tree(self, weblog_query_file, capsys, tmp_path):
        dot_path = tmp_path / "wf.dot"
        code = main(
            ["plan", weblog_query_file, "--records", "5000",
             "--machines", "4", "--explain", "--tree",
             "--dot", str(dot_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Dependency tree:" in out
        assert "per-measure feasible keys" in out
        assert dot_path.read_text().startswith("digraph")


class TestGantt:
    def test_gantt_charts_printed(self, weblog_query_file, capsys):
        code = main(
            ["run", weblog_query_file, "--records", "4000",
             "--machines", "4", "--days", "1", "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "map phase:" in out
        assert "reduce phase:" in out
        assert "utilization" in out


class TestTrace:
    def test_trace_writes_valid_chrome_trace(
        self, weblog_query_file, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", weblog_query_file, "--records", "5000",
             "--machines", "6", "--days", "1", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        # The whole span tree made it out: planning, the map phase, and
        # every reduce-side stage.
        for phase in ("optimize", "map", "shuffle", "sort", "group-sort",
                      "evaluate"):
            assert phase in names, phase
        # Per-slot task tracks for both phases.
        threads = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "map slot 0" in threads
        assert "reduce slot 0" in threads
        assert "wrote" in capsys.readouterr().out

    def test_trace_manifest_round_trips_counters(
        self, weblog_query_file, tmp_path, capsys
    ):
        from repro.mapreduce.cluster import SimulatedCluster
        from repro.mapreduce.timing import ClusterConfig
        from repro.obs import RunManifest
        from repro.parallel.executor import ParallelEvaluator
        from repro.workload.weblog import generate_sessions, weblog_schema

        out = tmp_path / "trace.json"
        code = main(
            ["trace", weblog_query_file, "--records", "5000",
             "--machines", "6", "--days", "1", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        manifest = RunManifest.load(str(tmp_path / "trace.manifest.json"))

        # Re-run the identical evaluation directly; the manifest's
        # counters must round-trip bit-identically to the JobReport.
        schema = weblog_schema(days=1)
        from repro.query.parser import parse_workflow

        workflow = parse_workflow(WEBLOG_QUERY, schema)
        records = generate_sessions(schema, 5000, seed=7)
        cluster = SimulatedCluster(ClusterConfig(machines=6))
        outcome = ParallelEvaluator(cluster).evaluate(workflow, records)
        assert manifest.job_counters() == outcome.job.counters
        assert manifest.phase_breakdown() == outcome.job.breakdown
        assert manifest.response_time == outcome.job.response_time
        assert manifest.reducer_loads == list(outcome.job.reducer_loads)

    def test_trace_optional_outputs(
        self, weblog_query_file, tmp_path, capsys
    ):
        out = tmp_path / "t.json"
        manifest = tmp_path / "custom.manifest.json"
        events = tmp_path / "events.jsonl"
        code = main(
            ["trace", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1", "--out", str(out),
             "--manifest", str(manifest), "--events", str(events)]
        )
        assert code == 0
        assert manifest.exists()
        lines = events.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)
        capsys.readouterr()

    def test_span_file_reads_back_as_one_trace(self, tmp_path, capsys):
        # `trace --events` writes a span file `trace --spans` can read:
        # one trace, no orphans, and the run's tree renders and exports.
        from repro.io import workflow_to_script
        from repro.workload import all_queries, paper_schema

        schema = paper_schema(days=2, temporal_base="minute")
        query = tmp_path / "Q1.cq"
        query.write_text(workflow_to_script(all_queries(schema)["Q1"]))
        events = tmp_path / "spans.jsonl"
        assert main(
            ["trace", str(query), "--schema", "paper", "--days", "2",
             "--records", "2000", "--machines", "4",
             "--out", str(tmp_path / "t.json"), "--events", str(events)]
        ) == 0
        capsys.readouterr()

        assert main(["trace", "--spans", str(events)]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert listing[0].endswith(" spans across 1 traces")
        trace_id, _, _, root = listing[1].split()
        assert trace_id != "?"
        assert root == "root=evaluate-query"

        chrome = tmp_path / "tree.json"
        assert main(
            ["trace", "--spans", str(events), "--query", trace_id,
             "--chrome", str(chrome)]
        ) == 0
        tree = capsys.readouterr().out.splitlines()
        assert tree[0].startswith(f"trace {trace_id} · ")
        assert tree[1].lstrip().startswith("evaluate-query")
        children = {line.split()[0] for line in tree[2:]}
        assert {"optimize", "job", "map", "reduce"} <= children
        data = json.loads(chrome.read_text())
        slices = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert {"evaluate-query", "optimize", "job", "map", "reduce"} <= slices


class TestStats:
    def test_stats_summarizes_manifest(
        self, weblog_query_file, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        main(
            ["trace", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1", "--out", str(out)]
        )
        capsys.readouterr()
        code = main(["stats", str(tmp_path / "trace.manifest.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "plan:" in text
        assert "map_input_records" in text
        assert "cumulative:" in text

    def test_trace_manifest_carries_the_registry(
        self, weblog_query_file, tmp_path, capsys
    ):
        from repro.obs import RunManifest

        # No --telemetry: trace still keeps a registry, just no writer.
        out = tmp_path / "trace.json"
        assert main(
            ["trace", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1", "--out", str(out)]
        ) == 0
        assert "telemetry frames" not in capsys.readouterr().out
        path = str(tmp_path / "trace.manifest.json")
        manifest = RunManifest.load(path)
        telemetry = manifest.telemetry
        assert telemetry["counters"]["job.map_input_records"] == (
            manifest.counters["map_input_records"])
        assert "optimizer.predicted_max_load" in telemetry["gauges"]
        assert telemetry["histograms"]["job.reducer_load"]["count"] == (
            len(manifest.reducer_loads))
        assert main(["stats", path]) == 0
        assert "schema v9" in capsys.readouterr().out

    def test_stats_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["stats", "/nonexistent/manifest.json"])

    def test_stats_rejects_non_manifest_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(SystemExit, match="not a run manifest"):
            main(["stats", str(path)])

    @pytest.mark.parametrize(
        "section, wrong",
        [
            (None, [1, 2, 3]),
            ("counters", []),
            ("breakdown", []),
            ("calibration", [1]),
            ("batch", [1]),
            ("faults", "none"),
            ("reducer_loads", {"0": 1}),
        ],
        ids=[
            "top-level", "counters", "breakdown", "calibration", "batch",
            "faults", "reducer_loads",
        ],
    )
    def test_stats_rejects_wrong_shaped_json(
        self, weblog_query_file, tmp_path, capsys, section, wrong
    ):
        out = tmp_path / "trace.json"
        main(
            ["trace", weblog_query_file, "--records", "1000",
             "--machines", "4", "--days", "1", "--out", str(out)]
        )
        capsys.readouterr()
        path = tmp_path / "trace.manifest.json"
        document = json.loads(path.read_text())
        if section is None:
            document = wrong
        else:
            document[section] = wrong
        path.write_text(json.dumps(document))
        for argv in (["stats", str(path)], ["diff", str(path), str(path)]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            message = str(excinfo.value)
            assert message.startswith(f"{path}: not a run manifest (")
            assert "\n" not in message

    def test_stats_future_schema_degrades_gracefully(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "future.json"
        main(
            ["append", "--records", "1500", "--partitions", "2",
             "--machines", "4", "--manifest", str(manifest)]
        )
        capsys.readouterr()
        data = json.loads(manifest.read_text())
        data["schema_version"] = 99
        data["from_the_future"] = {"x": 1}
        manifest.write_text(json.dumps(data))
        code = main(["stats", str(manifest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "schema v99" in out
        assert "incremental:" in out


class TestAppend:
    def test_streaming_append_verifies_and_writes_manifest(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "append.json"
        code = main(
            ["append", "--records", "2400", "--partitions", "3",
             "--machines", "4", "--verify", "--manifest", str(manifest)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed cache on partition 0" in out
        assert "patched=2 regional=1 derived=1" in out
        assert "bit-identical" in out
        data = json.loads(manifest.read_text())
        assert data["schema_version"] >= 8
        assert data["incremental"]["verified"] is True
        assert data["incremental"]["partitions"] == 3
        actions = {
            o["action"] for o in data["incremental"]["outcomes"]
        }
        assert actions == {"patched", "regional", "derived"}

    def test_append_holistic_queries_left_stale(
        self, weblog_query_file, capsys
    ):
        code = main(
            ["append", weblog_query_file, "--schema", "weblog",
             "--records", "2000", "--partitions", "2", "--days", "1",
             "--machines", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Medians are holistic: nothing patchable, entries age out.
        assert "patched=0" in out
        assert "stale=" in out

    def test_append_requires_query_for_batch_schemas(self):
        with pytest.raises(SystemExit, match="query file is required"):
            main(["append", "--schema", "weblog"])

    def test_append_rejects_single_partition(self):
        with pytest.raises(SystemExit, match="at least 2"):
            main(["append", "--partitions", "1"])


class TestLoggingFlags:
    def teardown_method(self):
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                logger.removeHandler(handler)
        logger.propagate = True
        logger.setLevel(logging.NOTSET)

    def test_default_level_is_warning(self, weblog_query_file, capsys):
        main(["plan", weblog_query_file])
        capsys.readouterr()
        assert logging.getLogger("repro").level == logging.WARNING

    def test_verbose_and_quiet(self, weblog_query_file, capsys):
        main(["plan", weblog_query_file, "-v"])
        assert logging.getLogger("repro").level == logging.INFO
        main(["plan", weblog_query_file, "-vv"])
        assert logging.getLogger("repro").level == logging.DEBUG
        main(["plan", weblog_query_file, "-q"])
        assert logging.getLogger("repro").level == logging.ERROR
        capsys.readouterr()

    def test_verbose_run_logs_progress(self, weblog_query_file, capsys):
        code = main(
            ["run", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1", "-v"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "INFO repro." in err


class TestArgumentValidation:
    def test_zero_machines_rejected_cleanly(self, weblog_query_file):
        with pytest.raises(SystemExit, match="machines"):
            main(["run", weblog_query_file, "--machines", "0"])

    def test_negative_records_rejected(self, weblog_query_file):
        with pytest.raises(SystemExit, match="records"):
            main(["run", weblog_query_file, "--records", "-5"])


class TestExplain:
    def test_text_explain_shows_the_decision(
        self, paper_query_file, capsys
    ):
        code = main(
            ["explain", paper_query_file, "--schema", "paper",
             "--records", "20000", "--machines", "8"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "EXPLAIN:" in text
        assert "per-measure feasible keys" in text
        assert "minimal feasible key:" in text
        assert "cf sweep (Formula 4)" in text
        assert "chosen:" in text
        assert "rejected because:" in text

    def test_json_explain_parses(self, paper_query_file, capsys):
        code = main(
            ["explain", paper_query_file, "--schema", "paper",
             "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["components"]
        chosen = [
            c
            for c in data["components"][0]["candidates"]
            if c["decision"]["chosen"]
        ]
        assert len(chosen) == 1
        assert chosen[0]["cost_curve"]

    def test_dot_explain_to_file(
        self, paper_query_file, tmp_path, capsys
    ):
        out = tmp_path / "explain.dot"
        code = main(
            ["explain", paper_query_file, "--schema", "paper",
             "--format", "dot", "--out", str(out)]
        )
        assert code == 0
        dot = out.read_text()
        assert dot.startswith("digraph explain {")
        assert "query ->" in dot
        assert "wrote dot explanation" in capsys.readouterr().out

    def test_sampling_explain(self, paper_query_file, capsys):
        code = main(
            ["explain", paper_query_file, "--schema", "paper",
             "--records", "5000", "--sampling"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "skew handler: sampled dispatch" in text

    def test_explain_missing_query(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["explain", "/nonexistent/query.cq"])

    def test_explain_unwritable_out(self, paper_query_file):
        with pytest.raises(SystemExit, match="cannot write"):
            main(
                ["explain", paper_query_file, "--schema", "paper",
                 "--out", "/nonexistent-dir/x.txt"]
            )


class TestDiff:
    def _write_manifest(self, tmp_path, query_file, name, **kwargs):
        out = tmp_path / f"{name}.json"
        argv = [
            "trace", query_file, "--records", kwargs.pop("records", "3000"),
            "--machines", kwargs.pop("machines", "4"), "--days", "1",
            "--out", str(out),
        ]
        assert main(argv) == 0
        return str(tmp_path / f"{name}.manifest.json")

    def test_identical_runs_diff_clean(
        self, weblog_query_file, tmp_path, capsys
    ):
        a = self._write_manifest(tmp_path, weblog_query_file, "a")
        b = self._write_manifest(tmp_path, weblog_query_file, "b")
        capsys.readouterr()
        code = main(["diff", a, b, "--threshold", "0"])
        assert code == 0
        text = capsys.readouterr().out
        assert "identical" in text
        assert "0 regressions" in text

    def test_different_runs_flag_regressions(
        self, weblog_query_file, tmp_path, capsys
    ):
        a = self._write_manifest(tmp_path, weblog_query_file, "a")
        b = self._write_manifest(
            tmp_path, weblog_query_file, "b", records="6000"
        )
        capsys.readouterr()
        code = main(["diff", a, b])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_json_output(self, weblog_query_file, tmp_path, capsys):
        a = self._write_manifest(tmp_path, weblog_query_file, "a")
        capsys.readouterr()
        code = main(["diff", a, a, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["regressions"] == []
        assert data["deltas"]

    def test_diff_missing_file(self, weblog_query_file, tmp_path, capsys):
        a = self._write_manifest(tmp_path, weblog_query_file, "a")
        capsys.readouterr()
        with pytest.raises(SystemExit, match="cannot read"):
            main(["diff", a, "/nonexistent/b.json"])

    def test_diff_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not a run manifest"):
            main(["diff", str(bad), str(bad)])

    def test_negative_threshold_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="threshold"):
            main(["diff", "a.json", "b.json", "--threshold", "-1"])


class TestTraceRobustness:
    def test_unwritable_trace_output(self, weblog_query_file):
        with pytest.raises(SystemExit, match="cannot write trace"):
            main(
                ["trace", weblog_query_file, "--records", "500",
                 "--machines", "2", "--days", "1",
                 "--out", "/nonexistent-dir/trace.json"]
            )

    def test_unwritable_manifest_output(self, weblog_query_file, tmp_path):
        out = tmp_path / "trace.json"
        with pytest.raises(SystemExit, match="cannot write manifest"):
            main(
                ["trace", weblog_query_file, "--records", "500",
                 "--machines", "2", "--days", "1", "--out", str(out),
                 "--manifest", "/nonexistent-dir/m.json"]
            )


BATCH_QUERY_A = """
measure A1 over keyword:word, time:minute = sum(page_count)
measure A2 over keyword:word, time:hour = avg(children(A1))
"""

BATCH_QUERY_B = """
measure B1 over keyword:word, time:minute = sum(ad_count)
"""


@pytest.fixture
def batch_query_files(tmp_path):
    a = tmp_path / "qa.cq"
    b = tmp_path / "qb.cq"
    a.write_text(BATCH_QUERY_A)
    b.write_text(BATCH_QUERY_B)
    return str(a), str(b)


class TestBatch:
    ARGS = ["--records", "3000", "--machines", "4", "--days", "1"]

    def test_batch_happy_path(self, batch_query_files, capsys):
        a, b = batch_query_files
        code = main(["batch", a, b] + self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "2 queries" in out
        assert "result rows" in out
        assert "qa" in out and "qb" in out

    def test_batch_warm_cache_dir(
        self, batch_query_files, tmp_path, capsys
    ):
        a, b = batch_query_files
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["batch", a, b, "--cache-dir", cache_dir] + self.ARGS
        ) == 0
        capsys.readouterr()
        assert main(
            ["batch", a, b, "--cache-dir", cache_dir] + self.ARGS
        ) == 0
        out = capsys.readouterr().out
        assert "0 shared jobs" in out
        assert "'misses': 0" in out

    def test_batch_manifest_then_stats(
        self, batch_query_files, tmp_path, capsys
    ):
        a, b = batch_query_files
        manifest = str(tmp_path / "batch.manifest.json")
        assert main(
            ["batch", a, b, "--manifest", manifest] + self.ARGS
        ) == 0
        capsys.readouterr()
        assert main(["stats", manifest]) == 0
        out = capsys.readouterr().out
        assert "batch:" in out
        assert "schema v9" in out

    def test_batch_manifest_carries_the_registry(
        self, batch_query_files, tmp_path, capsys
    ):
        from repro.obs import RunManifest

        a, b = batch_query_files
        path = str(tmp_path / "batch.manifest.json")
        assert main(["batch", a, b, "--manifest", path] + self.ARGS) == 0
        assert "telemetry frames" not in capsys.readouterr().out
        manifest = RunManifest.load(path)
        telemetry = manifest.telemetry
        assert telemetry["counters"]["job.map_input_records"] == (
            manifest.counters["map_input_records"])
        assert "optimizer.predicted_max_load" in telemetry["gauges"]
        assert main(["stats", path]) == 0
        assert "batch:" in capsys.readouterr().out

    def test_duplicate_stems_rejected(self, tmp_path):
        nested = tmp_path / "nested"
        nested.mkdir()
        first = tmp_path / "same.cq"
        second = nested / "same.cq"
        first.write_text(BATCH_QUERY_B)
        second.write_text(BATCH_QUERY_B)
        with pytest.raises(SystemExit, match="duplicate query name"):
            main(["batch", str(first), str(second)] + self.ARGS)

    def test_negative_group_retries_rejected(self, batch_query_files):
        a, b = batch_query_files
        with pytest.raises(SystemExit, match="group-retries"):
            main(
                ["batch", a, b, "--group-retries", "-1"] + self.ARGS
            )

    def test_batch_csv_export(self, batch_query_files, tmp_path, capsys):
        a, b = batch_query_files
        csv_dir = tmp_path / "csv"
        code = main(
            ["batch", a, b, "--csv-dir", str(csv_dir)] + self.ARGS
        )
        assert code == 0
        written = sorted(p.name for p in csv_dir.glob("*.csv"))
        assert written == ["qa.csv", "qb.csv"]


class TestExplainBatch:
    ARGS = ["--records", "3000", "--machines", "4", "--days", "1"]

    def test_multiple_files_require_batch_flag(self, batch_query_files):
        a, b = batch_query_files
        with pytest.raises(SystemExit, match="--batch"):
            main(["explain", a, b] + self.ARGS)

    def test_explain_batch_trail(self, batch_query_files, capsys):
        a, b = batch_query_files
        code = main(["explain", a, b, "--batch"] + self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "batch plan: 2 queries" in out

    def test_dot_format_rejected(self, batch_query_files):
        a, b = batch_query_files
        with pytest.raises(SystemExit, match="dot"):
            main(
                ["explain", a, b, "--batch", "--format", "dot"]
                + self.ARGS
            )


class TestTelemetryCli:
    def test_run_writes_telemetry_prom_and_profile(
        self, weblog_query_file, tmp_path, capsys
    ):
        log = tmp_path / "t.jsonl"
        prom = tmp_path / "p.txt"
        profile = tmp_path / "profile.txt"
        code = main(
            ["run", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1",
             "--telemetry", str(log), "--prom", str(prom),
             "--profile", str(profile)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry frames" in out
        assert "Prometheus snapshot" in out

        from repro.obs.exposition import read_telemetry_frames

        frames = list(read_telemetry_frames(log))
        assert frames
        assert frames[-1]["final"] is True
        assert frames[-1]["counters"]["job.completed"] == 1
        assert frames[-1]["progress"]["map"][0] >= 1

        prom_text = prom.read_text()
        assert "# TYPE repro_job_completed counter" in prom_text
        assert "repro_map_rows_total" in prom_text

        profile_lines = profile.read_text().strip().splitlines()
        assert profile_lines
        assert all(
            line.rsplit(" ", 1)[1].isdigit() for line in profile_lines
        )

    def test_telemetry_identical_answers(self, weblog_query_file, tmp_path,
                                         capsys):
        base = tmp_path / "base.csv"
        instrumented = tmp_path / "instrumented.csv"
        main(["run", weblog_query_file, "--records", "3000",
              "--machines", "4", "--days", "1", "--csv", str(base)])
        main(["run", weblog_query_file, "--records", "3000",
              "--machines", "4", "--days", "1",
              "--csv", str(instrumented),
              "--telemetry", str(tmp_path / "t.jsonl")])
        capsys.readouterr()
        assert instrumented.read_text() == base.read_text()

    def test_prom_requires_telemetry(self, weblog_query_file, tmp_path):
        with pytest.raises(SystemExit, match="requires --telemetry"):
            main(["run", weblog_query_file, "--records", "1000",
                  "--prom", str(tmp_path / "p.txt")])

    def test_naive_rejects_telemetry(self, weblog_query_file, tmp_path):
        with pytest.raises(SystemExit, match="--naive"):
            main(["run", weblog_query_file, "--records", "1000",
                  "--naive", "--telemetry", str(tmp_path / "t.jsonl")])

    def test_top_replay(self, weblog_query_file, tmp_path, capsys):
        log = tmp_path / "t.jsonl"
        main(["run", weblog_query_file, "--records", "3000",
              "--machines", "4", "--days", "1", "--telemetry", str(log)])
        capsys.readouterr()
        code = main(["top", "--replay", str(log)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "FINAL" in out
        assert "phases:" in out

    def test_top_replay_last_only(self, weblog_query_file, tmp_path,
                                  capsys):
        log = tmp_path / "t.jsonl"
        main(["run", weblog_query_file, "--records", "3000",
              "--machines", "4", "--days", "1", "--telemetry", str(log)])
        capsys.readouterr()
        code = main(["top", "--replay", str(log), "--last"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("===") == 2  # exactly one header line
        assert "FINAL" in out

    def test_top_replay_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["top", "--replay", str(tmp_path / "absent.jsonl")])

    def test_top_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["top"])
        assert "--follow" in capsys.readouterr().err

    def test_stats_watch_stops_on_final_frame(self, weblog_query_file,
                                              tmp_path, capsys):
        log = tmp_path / "t.jsonl"
        main(["run", weblog_query_file, "--records", "3000",
              "--machines", "4", "--days", "1", "--telemetry", str(log)])
        capsys.readouterr()
        code = main(["stats", "--watch", str(log)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro stats --watch" in out
        assert "FINAL" in out

    def test_trace_embeds_final_frame_in_manifest(self, weblog_query_file,
                                                  tmp_path, capsys):
        log = tmp_path / "t.jsonl"
        out_path = tmp_path / "trace.json"
        code = main(
            ["trace", weblog_query_file, "--records", "3000",
             "--machines", "4", "--days", "1", "--out", str(out_path),
             "--telemetry", str(log)]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads(
            (tmp_path / "trace.manifest.json").read_text()
        )
        assert manifest["schema_version"] == 9
        assert manifest["telemetry"]["final"] is True
        assert manifest["telemetry"]["counters"]["job.completed"] == 1

    def test_batch_telemetry_tracks_groups_and_cache(
        self, tmp_path, capsys
    ):
        for name, body in (
            ("a.cq", "measure A over keyword:word = sum(page_count)\n"),
            ("b.cq", "measure B over keyword:word = sum(ad_count)\n"),
        ):
            (tmp_path / name).write_text(body)
        log = tmp_path / "t.jsonl"
        code = main(
            ["batch", str(tmp_path / "a.cq"), str(tmp_path / "b.cq"),
             "--records", "2000", "--machines", "4", "--days", "1",
             "--cache-dir", str(tmp_path / "cache"),
             "--telemetry", str(log)]
        )
        assert code == 0
        capsys.readouterr()
        from repro.obs.exposition import read_telemetry_frames

        final = list(read_telemetry_frames(log))[-1]
        assert final["final"] is True
        assert final["progress"]["batch-groups"][0] >= 1
        assert final["counters"].get("cache.stores", 0) >= 1

        code = main(["top", "--replay", str(log), "--last"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch-groups" in out
        assert "cache: hit rate" in out
