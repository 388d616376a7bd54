"""Per-layer measurement for the ``--trace 1`` run.

Two instruments, both driven from outside the program on the workload's
own inputs:

* the **pipeline replay** walks every query of the workload through
  the layers a one-round evaluation passes -- serialize, parse, plan,
  columnar batch, payload, route, per-block evaluate, sort/group,
  centralized and vectorized scans, result dump -- calling each layer's
  public function once under one span;
* the **probes** time the layers the replay does not reach (kernels,
  shared-memory transport, the simulated and process evaluators, the
  serving cache, admission, batch planning, fingerprinting,
  incremental maintenance), each for a slice of the run's time budget.

Every timed call is a span (name, start, end, parent, query id) kept in
memory; a metric is a sum over the spans of one name.  Targets other
than the benchmark's five hard entry points are resolved by dotted
name, so a layer that a later change deletes is reported as *missing*
-- value 0 and a reason on stderr and in the result file -- instead of
crashing the run.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import traceback
from contextlib import contextmanager

MACHINES = 8
#: Blocks evaluated per query component in the replay: enough to time
#: the per-block cost, few enough that Q1's tens of thousands of
#: one-record blocks do not eat the run.
BLOCK_CAP = 1_500
#: Records given to probes that run a whole evaluation.
SMALL = 2_000
#: Spans kept; beyond this only a count is kept.
SPAN_CAP = 20_000


class Missing(Exception):
    """A layer target could not be resolved."""


def resolve(dotted: str):
    """Import the longest module prefix of *dotted*, getattr the rest."""
    parts = dotted.split(".")
    error = None
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError as exc:
            error = error or exc
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError as exc:
            raise Missing(f"{dotted}: {exc}") from exc
        return target
    raise Missing(f"{dotted}: {error}")


class Spans:
    """In-memory span recorder; written out when the run ends."""

    def __init__(self):
        self.rows: list = []
        self.dropped = 0

    def add(self, name, start, end, parent=None, query=""):
        """Record one span; returns its id (None once the cap is hit)."""
        if len(self.rows) >= SPAN_CAP:
            self.dropped += 1
            return None
        self.rows.append(
            {"id": len(self.rows), "name": name, "start": start,
             "end": end, "parent": parent, "query": query}
        )
        return len(self.rows) - 1

    @contextmanager
    def span(self, name, parent=None, query=""):
        """Record the enclosed interval; yields the span's id."""
        span_id = self.add(name, time.perf_counter(), None, parent, query)
        try:
            yield span_id
        finally:
            if span_id is not None:
                self.rows[span_id]["end"] = time.perf_counter()

    def self_times(self) -> dict:
        """Per span name: duration minus what child spans cover."""
        covered = [0.0] * len(self.rows)
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] += row["end"] - row["start"]
        totals: dict = {}
        for row in self.rows:
            totals[row["name"]] = totals.get(row["name"], 0.0) + (
                row["end"] - row["start"] - covered[row["id"]]
            )
        return totals


class LayerRun:
    """The replay and the probes over one workload's inputs."""

    def __init__(self, workload, spans: Spans, budget_s: float):
        self.catalog = workload.catalog
        self.schema = workload.schema
        self.records, self.delta = workload.replay_inputs()
        self.small = self.records[:SMALL]
        self.spans = spans
        self.deadline = time.perf_counter() + budget_s
        #: span name -> [seconds, work, calls]
        self.totals: dict = {}
        self.metrics: dict = {}
        #: metric name -> why it could not be measured
        self.missing: dict = {}

    # -- timing -----------------------------------------------------------

    def call(self, name, function, *args, work=1.0, parent=None, query="",
             until=0.0):
        """Call a layer function under one span; returns its result.

        *work* is what one call processed (records, bytes, items), or a
        function of the result when only the result knows.  With
        *until*, the call is repeated inside the same span until that
        instant: a probe's span covers all its calls.
        """
        total = self.totals.setdefault(name, [0.0, 0.0, 0])
        with self.spans.span(name, parent=parent, query=query):
            while True:
                started = time.perf_counter()
                result = function(*args)
                ended = time.perf_counter()
                total[0] += ended - started
                total[1] += work(result) if callable(work) else work
                total[2] += 1
                if ended >= until:
                    return result

    def slice_end(self) -> float:
        """When a probe starting now has used its share of the budget."""
        now = time.perf_counter()
        return now + 0.05 * max(0.0, self.deadline - now)

    def repeat(self, name, function, *args, work=1.0):
        """Call until this probe's slice of the time budget is used."""
        return self.call(
            name, function, *args, work=work, until=self.slice_end()
        )

    def per_s(self, name: str, scale: float = 1.0) -> float:
        seconds, work, _calls = self.totals[name]
        return work / scale / seconds

    def micros(self, name: str) -> float:
        seconds, work, _calls = self.totals[name]
        return seconds / work * 1e6

    def millis(self, name: str) -> float:
        seconds, _work, calls = self.totals[name]
        return seconds / calls * 1e3

    def guard(self, names, function, *args) -> None:
        """Run one stage or probe; a failure marks *names* missing."""
        try:
            function(*args)
        except Exception as exc:  # a deleted or changed layer
            if not isinstance(exc, Missing):
                traceback.print_exc(file=sys.stderr)
            for name in names:
                if name not in self.metrics:
                    self.missing.setdefault(
                        name, f"{type(exc).__name__}: {exc}"
                    )

    def run(self) -> None:
        self.replay()
        for probe, names in PROBES:
            self.guard(names, getattr(self, probe))

    # -- the pipeline replay ----------------------------------------------

    def replay(self) -> None:
        self.shipped = self.blocks = self.evaluated_blocks = 0
        self.candidates = self.plans = 0
        for name, workflow in self.catalog.items():
            query = f"replay-{name}"
            with self.spans.span("replay", query=query) as root:
                state = {
                    "workflow": workflow,
                    "at": {"parent": root, "query": query},
                }
                for stage, names in REPLAY_STAGES:
                    self.guard(names, getattr(self, stage), state)
        n = len(self.records)
        derive = {
            "io.workflow_roundtrip.us":
                lambda: self.micros("io.workflow_roundtrip"),
            "query.parse_workflow.us":
                lambda: self.micros("query.parse_workflow"),
            "optimizer.plan_query.us":
                lambda: self.micros("optimizer.plan_query"),
            "optimizer.candidates_per_plan":
                lambda: self.candidates / self.plans,
            "cube.from_records.records_per_s":
                lambda: self.per_s("cube.from_records"),
            "cube.to_payload.mb_per_s":
                lambda: self.per_s("cube.to_payload", 1e6),
            "distribution.route.records_per_s":
                lambda: self.per_s("distribution.route"),
            "distribution.replication_ratio":
                lambda: self.shipped / (n * len(self.catalog)),
            "distribution.blocks_per_query":
                lambda: self.blocks / len(self.catalog),
            "local.block_evaluate.records_per_s":
                lambda: self.per_s("local.block_evaluate"),
            "local.blocks_per_s": lambda: (
                self.evaluated_blocks
                / self.totals["local.block_evaluate"][0]
            ),
            "mapreduce.sort_group_pairs.pairs_per_s":
                lambda: self.per_s("mapreduce.sort_group_pairs"),
            "local.evaluate_centralized.records_per_s":
                lambda: self.per_s("local.evaluate_centralized"),
            "local.evaluate_vectorized.records_per_s":
                lambda: self.per_s("local.evaluate_vectorized"),
            "io.result_to_dict.rows_per_s":
                lambda: self.per_s("io.result_to_dict"),
        }
        for name, value in derive.items():
            if name not in self.missing:
                self.metrics[name] = value()

    @staticmethod
    def earlier(state, key: str):
        """What an earlier stage of this query's replay left behind."""
        if key not in state:
            raise Missing(f"the replay's {key} stage did not run")
        return state[key]

    def stage_roundtrip(self, state) -> None:
        """What a worker's initializer does with the shipped workflow."""
        to_dict = resolve("repro.io.workflow_to_dict")
        from_dict = resolve("repro.io.workflow_from_dict")
        self.call(
            "io.workflow_roundtrip",
            lambda: from_dict(to_dict(state["workflow"]), self.schema),
            **state["at"],
        )

    def stage_parse(self, state) -> None:
        script = resolve("repro.io.workflow_to_script")(state["workflow"])
        self.call(
            "query.parse_workflow", resolve("repro.query.parse_workflow"),
            script, self.schema, **state["at"],
        )

    def stage_plan(self, state) -> None:
        optimizer = resolve("repro.optimizer.Optimizer")()
        state["plan"] = self.call(
            "optimizer.plan_query", optimizer.plan_query,
            state["workflow"], len(self.records), MACHINES, **state["at"],
        )
        self.plans += 1
        self.candidates += sum(
            sub.candidates_considered for _part, sub in state["plan"].subplans
        )

    def stage_columnar(self, state) -> None:
        batch_type = resolve("repro.cube.batches.RecordBatch")
        state["batch"] = self.call(
            "cube.from_records", batch_type.from_records,
            self.schema, self.records, work=len(self.records), **state["at"],
        )
        self.call(
            "cube.to_payload", state["batch"].to_payload,
            work=lambda payload: payload.nbytes, **state["at"],
        )

    def stage_route(self, state) -> None:
        plan = self.earlier(state, "plan")
        batch = self.earlier(state, "batch")
        routed = []
        for index, (component, sub) in enumerate(plan.subplans):
            block_rows = self.call(
                "distribution.route",
                lambda: sub.scheme.make_batch_router()(batch, (index,)),
                work=len(self.records), **state["at"],
            )
            routed.append((component, sub.scheme, block_rows))
            self.blocks += len(block_rows)
            self.shipped += sum(len(rows) for _key, rows in block_rows)
        state["routed"] = routed

    def stage_block_evaluate(self, state) -> None:
        evaluator_type = resolve(
            "repro.local.vectorized.VectorizedBlockEvaluator"
        )
        batch = self.earlier(state, "batch")
        for component, scheme, block_rows in self.earlier(state, "routed"):
            keep = {
                measure.name: scheme.make_result_filter(measure.granularity)
                for measure in component.measures
            }
            self.call(
                "local.block_evaluate", _evaluate_blocks,
                evaluator_type(component), keep, batch,
                block_rows[:BLOCK_CAP],
                work=lambda records: records, **state["at"],
            )
            self.evaluated_blocks += min(len(block_rows), BLOCK_CAP)

    def stage_sort_group(self, state) -> None:
        pairs = [
            (key, int(row))
            for key, rows in self.earlier(state, "routed")[0][2][:BLOCK_CAP]
            for row in rows
        ]
        self.call(
            "mapreduce.sort_group_pairs",
            resolve("repro.mapreduce.sorter.sort_group_pairs"),
            pairs, work=len(pairs), **state["at"],
        )

    def stage_centralized(self, state) -> None:
        from repro.local import evaluate_centralized  # hard entry point

        state["result"] = self.call(
            "local.evaluate_centralized", evaluate_centralized,
            state["workflow"], self.records,
            work=len(self.records), **state["at"],
        )

    def stage_vectorized(self, state) -> None:
        self.call(
            "local.evaluate_vectorized",
            resolve("repro.local.vectorized.evaluate_vectorized"),
            state["workflow"], self.records,
            work=len(self.records), **state["at"],
        )

    def stage_dump(self, state) -> None:
        result = self.earlier(state, "result")
        self.call(
            "io.result_to_dict", resolve("repro.io.result_to_dict"),
            result, work=result.total_rows(), **state["at"],
        )

    # -- probes: data plane -----------------------------------------------

    def probe_kernels(self) -> None:
        import numpy as np

        batch = resolve("repro.cube.batches.RecordBatch").from_records(
            self.schema, self.records
        )
        # The first basic measure's coordinates and values: the arrays
        # the sort/scan sweep hands to the kernels.
        measure = next(iter(self.catalog.values())).basic_measures()[0]
        dims = [
            index
            for index, level in enumerate(measure.granularity.levels)
            if level != "ALL"
        ] or [0]
        keys = np.stack([batch.column(index) for index in dims], axis=1)
        values = batch.field(measure.field)

        packed = self.repeat(
            "kernels.pack_rows", resolve("repro.kernels.pack_rows"), keys,
            work=len(keys),
        )
        self.metrics["kernels.pack_rows.rows_per_s"] = self.per_s(
            "kernels.pack_rows"
        )
        order = (
            np.lexsort(keys.T[::-1])
            if packed is None
            else np.argsort(packed[0], kind="stable")
        )
        starts = np.flatnonzero(
            resolve("repro.kernels.row_boundaries")(keys[order])
        )
        ordered = np.ascontiguousarray(values[order])
        self.repeat(
            "kernels.segment_reduce", resolve("repro.kernels.segment_reduce"),
            ordered, starts, "sum", work=len(ordered),
        )
        self.metrics["kernels.segment_reduce.rows_per_s"] = self.per_s(
            "kernels.segment_reduce"
        )
        self.repeat(
            "kernels.window_reduce", resolve("repro.kernels.window_reduce"),
            np.sort(keys[:, -1]), ordered, -9, 0, "sum", work=len(ordered),
        )
        self.metrics["kernels.window_reduce.rows_per_s"] = self.per_s(
            "kernels.window_reduce"
        )

    def probe_shm(self) -> None:
        import numpy as np

        shm = resolve("repro.parallel.shm")
        batch = resolve("repro.cube.batches.RecordBatch").from_records(
            self.schema, self.records
        )
        rows = np.arange(len(batch), dtype=np.int64)

        def roundtrip() -> int:
            registry = shm.SegmentRegistry()
            try:
                bucket = shm.ShmBucket.build(
                    registry, batch, [((0, 0), rows)], rows
                )
                view = bucket.attach()
                try:
                    _read_view(view, self.schema)
                finally:
                    view.close()
            finally:
                registry.unlink_all()
            return bucket.nbytes

        self.repeat("parallel.shm.roundtrip", roundtrip,
                    work=lambda nbytes: nbytes)
        self.metrics["parallel.shm.roundtrip_mb_per_s"] = self.per_s(
            "parallel.shm.roundtrip", 1e6
        )

    def probe_sim(self) -> None:
        from repro.local import evaluate_centralized
        from repro.mapreduce import ClusterConfig, SimulatedCluster
        from repro.parallel import ParallelEvaluator

        evaluator = ParallelEvaluator(
            SimulatedCluster(ClusterConfig(machines=MACHINES))
        )
        for workflow in self.catalog.values():
            self.call("parallel.sim_evaluate", evaluator.evaluate,
                      workflow, self.small)
            self.call("parallel.sim_baseline", evaluate_centralized,
                      workflow, self.small)
        self.metrics["parallel.sim_evaluate.ms"] = self.millis(
            "parallel.sim_evaluate"
        )
        self.metrics["parallel.sim_over_centralized"] = (
            self.totals["parallel.sim_evaluate"][0]
            / self.totals["parallel.sim_baseline"][0]
        )

    def probe_process(self) -> None:
        from repro.parallel.multiprocess import MultiprocessEvaluator

        evaluator = MultiprocessEvaluator(processes=os.cpu_count())
        workflow = next(iter(self.catalog.values()))
        # 100 records: pool start, plan and teardown are all that is left.
        self.call("parallel.mp.fixed_cost", evaluator.evaluate,
                  workflow, self.records[:100])
        self.metrics["parallel.mp.fixed_cost_ms"] = self.millis(
            "parallel.mp.fixed_cost"
        )
        _result, report = self.call(
            "parallel.mp.evaluate", evaluator.evaluate, workflow, self.small
        )
        self.metrics.update({
            "parallel.mp.transport_bytes_per_s":
                report.transport_bytes_per_second,
            "parallel.mp.shm_bytes": report.shm_bytes,
            "parallel.mp.tasks": report.tasks,
            "parallel.mp.retried_tasks": report.retries,
        })

    def probe_leaks(self) -> None:
        self.metrics["parallel.shm.leaked_segments"] = len(
            resolve("repro.parallel.shm.leaked_segments")()
        )

    # -- probes: serving --------------------------------------------------

    def probe_cache(self) -> None:
        from repro.local import evaluate_centralized

        signature = resolve("repro.serving.measure_signature")
        cache_key = resolve("repro.serving.cache_key")
        cache_type = resolve("repro.serving.MeasureCache")
        measures = [
            (workflow, measure)
            for workflow in self.catalog.values()
            for measure in workflow.measures
        ]

        def signatures() -> None:
            for _workflow, measure in measures:
                signature(measure)

        self.repeat("serving.measure_signature", signatures,
                    work=len(measures))
        self.metrics["serving.measure_signature.us"] = self.micros(
            "serving.measure_signature"
        )
        answers = {
            id(workflow): evaluate_centralized(workflow, self.small)
            for workflow in self.catalog.values()
        }
        entries = [
            (cache_key("probe", measure), measure,
             answers[id(workflow)][measure.name])
            for workflow, measure in measures
        ]

        def puts():
            cache = cache_type()
            for key, measure, table in entries:
                cache.put(key, table, measure_name=measure.name)
            return cache

        cache = self.repeat("serving.cache.put", puts, work=len(entries))
        self.metrics["serving.cache.put.us"] = self.micros(
            "serving.cache.put"
        )

        def gets() -> None:
            for key, measure, _table in entries:
                cache.get(key, measure.granularity)

        self.repeat("serving.cache.get", gets, work=len(entries))
        self.metrics["serving.cache.get.us"] = self.micros(
            "serving.cache.get"
        )

    def probe_admission(self) -> None:
        optimizer = resolve("repro.optimizer.Optimizer")()
        groups = resolve("repro.serving.groups")
        components = resolve("repro.query.workflow.connected_components")
        controller_type = resolve("repro.serving.AdmissionController")
        units = []
        for name, workflow in self.catalog.items():
            for component in components(workflow):
                prefixed = groups.prefix_workflow(
                    component, name + groups.QUERY_SEPARATOR
                )
                solo = optimizer.plan(prefixed, len(self.small), MACHINES)
                units.append(groups.BatchUnit(name, prefixed, solo))

        def offers() -> None:
            controller = controller_type(
                optimizer, len(self.small), MACHINES, window=0.02
            )
            for unit in units:
                controller.offer(unit, now=0.0)

        self.repeat("serving.admission.offer", offers, work=len(units))
        self.metrics["serving.admission.offer.us"] = self.micros(
            "serving.admission.offer"
        )

    def probe_batch(self) -> None:
        from repro.mapreduce import ClusterConfig, SimulatedCluster

        evaluator = resolve("repro.serving.BatchEvaluator")(
            SimulatedCluster(ClusterConfig(machines=MACHINES))
        )
        plan = self.call("serving.batch_plan", evaluator.plan,
                         self.catalog, self.small)
        self.metrics["serving.batch_plan.ms"] = self.millis(
            "serving.batch_plan"
        )
        self.call("serving.batch_evaluate", evaluator.evaluate,
                  self.catalog, self.small, plan)
        self.metrics["serving.batch_evaluate.ms"] = self.millis(
            "serving.batch_evaluate"
        )

    def probe_fingerprint(self) -> None:
        self.repeat(
            "serving.dataset_fingerprint",
            resolve("repro.serving.dataset_fingerprint"),
            self.records, self.schema, work=len(self.records),
        )
        self.metrics["serving.dataset_fingerprint.records_per_s"] = (
            self.per_s("serving.dataset_fingerprint")
        )

    def probe_incremental(self) -> None:
        from repro.local import evaluate_centralized

        serving = resolve("repro.serving")
        old = serving.dataset_fingerprint(self.records, self.schema)
        new = serving.dataset_fingerprint(
            self.records + self.delta, self.schema
        )
        chain = [{
            "digest": serving.partition_digest(self.records, self.schema),
            "n_records": len(self.records),
        }]
        cold = {
            name: evaluate_centralized(workflow, self.records)
            for name, workflow in self.catalog.items()
        }

        def warm_maintainer():
            cache = serving.MeasureCache()
            for name, workflow in self.catalog.items():
                for measure in workflow.measures:
                    cache.put(
                        serving.cache_key(old, measure),
                        cold[name][measure.name],
                        measure_name=measure.name, partitions=chain,
                    )
            return serving.IncrementalMaintainer(cache, self.schema)

        # One append over a cache warmed on the base data; warming is
        # outside the span.
        stop = self.slice_end()
        while True:
            report = self.call(
                "serving.incremental.apply", warm_maintainer().apply,
                list(self.catalog.values()), self.records, self.delta,
                old, new, chain,
            )
            if time.perf_counter() >= stop:
                break
        self.metrics.update({
            "serving.incremental.apply.ms":
                self.millis("serving.incremental.apply"),
            "serving.incremental.patched": report.count("patched"),
            "serving.incremental.regional": report.count("regional"),
            "serving.incremental.stale": report.count("stale"),
        })


def _evaluate_blocks(evaluator, keep, batch, block_rows) -> int:
    """What a reduce worker does per block: evaluate, keep owned rows.
    Returns the records evaluated."""
    records = 0
    for key, rows in block_rows:
        result = evaluator.evaluate(batch.take(rows))
        records += len(rows)
        for name, table in result.items():
            owned = keep[name](key[1:])
            sum(1 for coords in table.coords() if owned(coords))
    return records


def _read_view(view, schema) -> None:
    """Read an attached payload; in its own frame so that every array
    view is dead before the caller unmaps the segment."""
    int(view.batch(schema).column(0).sum())
    view.blocks()


#: Replay stages in pipeline order, with the metrics each one owes.
REPLAY_STAGES = [
    ("stage_roundtrip", ["io.workflow_roundtrip.us"]),
    ("stage_parse", ["query.parse_workflow.us"]),
    ("stage_plan", [
        "optimizer.plan_query.us", "optimizer.candidates_per_plan",
    ]),
    ("stage_columnar", [
        "cube.from_records.records_per_s", "cube.to_payload.mb_per_s",
    ]),
    ("stage_route", [
        "distribution.route.records_per_s",
        "distribution.replication_ratio", "distribution.blocks_per_query",
    ]),
    ("stage_block_evaluate", [
        "local.block_evaluate.records_per_s", "local.blocks_per_s",
    ]),
    ("stage_sort_group", ["mapreduce.sort_group_pairs.pairs_per_s"]),
    ("stage_centralized", ["local.evaluate_centralized.records_per_s"]),
    ("stage_vectorized", ["local.evaluate_vectorized.records_per_s"]),
    ("stage_dump", ["io.result_to_dict.rows_per_s"]),
]

#: Probes in run order, with the metrics each one owes.
PROBES = [
    ("probe_kernels", [
        "kernels.pack_rows.rows_per_s", "kernels.segment_reduce.rows_per_s",
        "kernels.window_reduce.rows_per_s",
    ]),
    ("probe_shm", ["parallel.shm.roundtrip_mb_per_s"]),
    ("probe_sim", [
        "parallel.sim_evaluate.ms", "parallel.sim_over_centralized",
    ]),
    ("probe_process", [
        "parallel.mp.fixed_cost_ms", "parallel.mp.transport_bytes_per_s",
        "parallel.mp.shm_bytes", "parallel.mp.tasks",
        "parallel.mp.retried_tasks",
    ]),
    ("probe_leaks", ["parallel.shm.leaked_segments"]),
    ("probe_cache", [
        "serving.measure_signature.us", "serving.cache.put.us",
        "serving.cache.get.us",
    ]),
    ("probe_admission", ["serving.admission.offer.us"]),
    ("probe_batch", ["serving.batch_plan.ms", "serving.batch_evaluate.ms"]),
    ("probe_fingerprint", ["serving.dataset_fingerprint.records_per_s"]),
    ("probe_incremental", [
        "serving.incremental.apply.ms", "serving.incremental.patched",
        "serving.incremental.regional", "serving.incremental.stale",
    ]),
]
