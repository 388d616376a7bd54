"""The simulated clock, pinned bit for bit.

Every :class:`~repro.mapreduce.counters.JobReport` the simulator prices
-- floats as ``float.hex``, counters, reducer loads and times, the map
and reduce task traces, the fault accounting -- and every span a
:class:`~repro.obs.Tracer` records on the simulated clock, for a set of
configurations that covers what the differential in
``test_bucket_reducer.py`` does not: chaos plans, dead machines,
stragglers with and without speculation, the naive per-measure jobs,
and the map side's typed, string and unsupported-aggregate paths.

The golden file was recorded from the engine that executed and charged
the clock in one loop.  To re-record it after a change that means to
move the clock (and says why), run::

    PYTHONPATH=src python -m tests.parallel.test_accounting_golden
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from repro.cube import Attribute, Schema, UniformHierarchy
from repro.faults import FaultPlan, MachineCrash
from repro.mapreduce import ClusterConfig, InMemoryDFS, SimulatedCluster
from repro.mapreduce import engine
from repro.obs import Tracer
from repro.parallel import ExecutionConfig, NaiveEvaluator, ParallelEvaluator
from repro.query import RATIO, WorkflowBuilder
from repro.workload import (
    all_queries,
    generate_skewed,
    generate_uniform,
    paper_schema,
)

GOLDEN = Path(__file__).parent / "data" / "accounting_golden.json"

MACHINES = 10


def _plain(value):
    """*value* as JSON, every float as its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: _plain(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(
            value.items(), key=lambda pair: str(pair[0])
        )}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def report_record(report) -> dict:
    """Everything a job report says about the simulated run."""
    counters = {
        spec.name: getattr(report.counters, spec.name)
        for spec in dataclasses.fields(report.counters)
        if spec.name != "extra"
    }
    counters["extra"] = dict(sorted(report.counters.extra.items()))
    return {
        "name": report.name,
        "counters": counters,
        "breakdown": _plain(report.breakdown),
        "map_makespan": _plain(report.map_makespan),
        "reduce_makespan": _plain(report.reduce_makespan),
        "response_time": _plain(report.response_time),
        "reducer_loads": list(report.reducer_loads),
        "reducer_times": _plain(report.reducer_times),
        "map_trace": _plain(report.map_trace),
        "reduce_trace": _plain(report.reduce_trace),
        "faults": _plain(report.faults),
    }


def sim_spans(tracer: Tracer) -> list:
    """The spans on the simulated clock, with their parents' names.

    The root span's ``columnar`` attribute is left out: it counts how
    the map side routed (per split, or the whole input at once), which
    is execution, not accounting."""
    names = {span.span_id: span.name for span in tracer.spans}
    return [
        _plain({
            "name": span.name,
            "parent": names.get(span.parent_id),
            "sim": [span.sim_start, span.sim_end],
            "track": span.track,
            "slot": span.slot,
            "attributes": {
                key: value for key, value in span.attributes.items()
                if key != "columnar"
            },
        })
        for span in tracer.spans
        if span.sim_start is not None
    ]


# -- configurations -----------------------------------------------------------


def _paper_data():
    schema = paper_schema(days=3, temporal_base="minute")
    return schema, {
        "uniform": generate_uniform(schema, 1200, seed=5),
        "skewed": generate_skewed(schema, 1200, seed=5, skew_fraction=0.25),
    }


def _cluster(machines=MACHINES, block_records=128, **overrides):
    config = ClusterConfig(machines=machines, **overrides)
    return SimulatedCluster(
        config,
        dfs=InMemoryDFS(
            machines=machines,
            block_records=block_records,
            replication=config.replication,
        ),
    )


def _tiny():
    x = UniformHierarchy("x", {"value": 1, "four": 4}, base_cardinality=16)
    t = UniformHierarchy("t", {"tick": 1, "span": 4}, base_cardinality=32)
    schema = Schema([Attribute("x", x), Attribute("t", t)], facts=["v"])
    rng = random.Random(11)
    records = [
        (rng.randrange(16), rng.randrange(32), rng.randrange(1, 10))
        for _ in range(600)
    ]
    builder = WorkflowBuilder(schema)
    builder.basic(
        "base", over={"x": "value", "t": "tick"}, field="v", aggregate="sum"
    )
    builder.basic(
        "coarse", over={"x": "four", "t": "span"}, field="v", aggregate="count"
    )
    builder.composite("rolled", over={"x": "four", "t": "span"}).from_children(
        "base", aggregate="sum"
    )
    (
        builder.composite("rate", over={"x": "four", "t": "span"})
        .from_self("rolled")
        .from_self("coarse")
        .combine(RATIO)
    )
    (
        builder.composite("aligned", over={"x": "value", "t": "tick"})
        .from_self("base")
        .from_parent("rate")
        .combine(RATIO)
    )
    builder.composite("trailing", over={"x": "value", "t": "tick"}).window(
        "base", attribute="t", low=-3, high=0, aggregate="avg"
    )
    return schema, builder.build(), records


def _sliding(schema, aggregate="sum"):
    builder = WorkflowBuilder(schema)
    builder.basic(
        "base", over={"x": "value", "t": "tick"}, field="v",
        aggregate=aggregate,
    )
    builder.composite("trailing", over={"x": "value", "t": "tick"}).window(
        "base", attribute="t", low=-3, high=0, aggregate="avg"
    )
    return builder.build()


def _string_case():
    x = UniformHierarchy("x", {"value": 1}, base_cardinality=3)
    t = UniformHierarchy("t", {"tick": 1, "span": 4}, base_cardinality=32)
    schema = Schema([Attribute("x", x), Attribute("t", t)], facts=["v"])
    rng = random.Random(3)
    records = [
        (rng.choice(["east", "north", "west"]), rng.randrange(32),
         rng.randrange(1, 10))
        for _ in range(400)
    ]
    return _sliding(schema), records


def _parallel(workflow, records, cluster, config=None, plan=None):
    def run():
        tracer = Tracer()
        outcome = ParallelEvaluator(cluster(), config, tracer=tracer).evaluate(
            workflow, records, plan=plan
        )
        return {
            "rows": outcome.result.total_rows(),
            "jobs": [report_record(outcome.job)],
            "spans": sim_spans(tracer),
        }

    return run


def _naive(workflow, records):
    def run():
        tracer = Tracer()
        outcome = NaiveEvaluator(_cluster(), tracer=tracer).evaluate(
            workflow, records
        )
        return {
            "rows": outcome.result.total_rows(),
            "jobs": [report_record(job) for job in outcome.jobs],
            "spans": sim_spans(tracer),
        }

    return run


def _failed_cluster(failed):
    def build():
        cluster = _cluster()
        for machine in failed:
            cluster.fail_machine(machine)
        return cluster

    return build


def _chaos_cluster(plan):
    def build():
        cluster = SimulatedCluster(ClusterConfig(machines=8))
        cluster.install_faults(plan)
        return cluster

    return build


def cases() -> dict:
    """Case name -> a callable producing that case's record."""
    schema, datasets = _paper_data()
    queries = all_queries(schema)
    uniform = datasets["uniform"]
    built = {}
    for name, workflow in queries.items():
        for generator, records in datasets.items():
            built[f"fig4/{name}/{generator}"] = _parallel(
                workflow, records, _cluster
            )
        if workflow.supports_early_aggregation():
            built[f"early/{name}"] = _parallel(
                workflow, uniform, _cluster,
                ExecutionConfig(early_aggregation=True),
            )
    built["speedup/Q3/m4"] = _parallel(
        queries["Q3"], uniform, lambda: _cluster(machines=4)
    )
    built["speedup/Q3/m25"] = _parallel(
        queries["Q3"], uniform, lambda: _cluster(machines=25)
    )
    built["combined_sort/Q2"] = _parallel(
        queries["Q2"], uniform, _cluster, ExecutionConfig(combined_sort=True)
    )
    built["combined_sort/early/Q4"] = _parallel(
        queries["Q4"], uniform, _cluster,
        ExecutionConfig(combined_sort=True, early_aggregation=True),
    )
    built["round_robin/Q3"] = _parallel(
        queries["Q3"], uniform, _cluster,
        ExecutionConfig(partitioner="round_robin"),
    )
    built["reducers3/Q1/skewed"] = _parallel(
        queries["Q1"], datasets["skewed"], _cluster,
        ExecutionConfig(num_reducers=3),
    )
    built["failed/Q5"] = _parallel(
        queries["Q5"], uniform, _failed_cluster((0, 7, 3))
    )
    built["stragglers/Q3"] = _parallel(
        queries["Q3"], uniform,
        lambda: _cluster(straggler_probability=0.2, straggler_slowdown=8.0),
    )
    built["stragglers+speculation/Q3"] = _parallel(
        queries["Q3"], uniform,
        lambda: _cluster(
            straggler_probability=0.2, straggler_slowdown=8.0,
            speculative_execution=True,
        ),
    )

    tiny_schema, tiny_workflow, tiny_records = _tiny()
    for seed in range(6):
        built[f"chaos/seed{seed}"] = _parallel(
            tiny_workflow, tiny_records,
            _chaos_cluster(FaultPlan.random(seed, 8)),
        )
    built["chaos/clean-plan"] = _parallel(
        tiny_workflow, tiny_records, _chaos_cluster(FaultPlan(seed=0))
    )
    built["chaos/mid-job-deaths"] = _parallel(
        tiny_workflow, tiny_records,
        _chaos_cluster(FaultPlan(
            seed=1,
            machine_crashes=(MachineCrash(0, 0.004), MachineCrash(5, 0.006)),
        )),
    )
    built["chaos/early/seed2"] = _parallel(
        tiny_workflow, tiny_records,
        _chaos_cluster(FaultPlan.random(2, 8)),
        ExecutionConfig(early_aggregation=True),
    )

    float_records = [
        (x, t, v + 0.25) if index % 5 == 0 else (x, t, v)
        for index, (x, t, v) in enumerate(tiny_records)
    ]
    built["map/float-facts"] = _parallel(
        _sliding(tiny_schema), float_records,
        lambda: _cluster(block_records=100),
    )
    mixed = [
        (x, t, v + 0.5) if 200 <= index < 300 else (x, t, v)
        for index, (x, t, v) in enumerate(tiny_records)
    ]
    built["map/one-typed-split"] = _parallel(
        _sliding(tiny_schema), mixed, lambda: _cluster(block_records=100)
    )
    built["map/string-dimension"] = _parallel(
        *_string_case(), lambda: _cluster(block_records=100)
    )
    built["map/variance"] = _parallel(
        _sliding(tiny_schema, "variance"), tiny_records,
        lambda: _cluster(block_records=100),
    )
    built["map/empty"] = _parallel(tiny_workflow, [], _cluster)
    built["map/tiny"] = _parallel(
        tiny_workflow, tiny_records, lambda: _cluster(block_records=100)
    )

    built["naive/Q6"] = _naive(queries["Q6"], uniform[:600])
    built["naive/tiny"] = _naive(tiny_workflow, tiny_records)
    return built


CASES = cases()


def record_all() -> dict:
    return {name: run() for name, run in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_accounting_is_unchanged(golden, name):
    got = json.loads(json.dumps(CASES[name]()))
    want = golden[name]
    for index, (got_job, want_job) in enumerate(
        zip(got["jobs"], want["jobs"])
    ):
        for field in want_job:
            assert got_job[field] == want_job[field], (name, index, field)
    assert got == want


def compensated_sum(iterable, start=0):
    """``sum`` as Python 3.12 computes it once a float appears
    (Neumaier's compensated summation); 3.10 and 3.11 fold left."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if isinstance(total, float):
            break
    else:
        return total
    compensation = 0.0
    for item in items:
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_accounting_does_not_depend_on_sum(golden, monkeypatch):
    """The clock folds stage times left to right itself, so a
    ``sum`` that compensates (Python 3.12's) cannot move it."""
    monkeypatch.setattr(engine, "sum", compensated_sum, raising=False)
    moved = [
        name for name, run in sorted(CASES.items())
        if json.loads(json.dumps(run())) != golden[name]
    ]
    assert not moved


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # One case per line.
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(record, separators=(',', ':'))}"
        for name, record in sorted(record_all().items())
    ) + "\n}\n")
    print(f"wrote {GOLDEN}")
