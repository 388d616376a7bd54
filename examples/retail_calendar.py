"""Retail warehouse: calendar hierarchies and month-over-month growth.

Two years of synthetic sales across a store fleet; the composite query
computes daily store revenue, monthly regional revenue, each store's
share of its region, and month-over-month regional growth -- the sibling
window runs at *month* level, where bucket sizes are irregular (28-31
days), which is exactly what the calendar hierarchy's conservative range
conversion handles.

The same plan then runs on the process-parallel backend to show the
simulated and real scatter/gather executions agree.

Usage:  python examples/retail_calendar.py
"""

import datetime

from repro import (
    ClusterConfig,
    ParallelEvaluator,
    SimulatedCluster,
    minimal_feasible_key,
)
from repro.parallel import MultiprocessEvaluator
from repro.query.render import explain_derivation
from repro.workload.retail import (
    GROWTH,
    decode_region,
    generate_sales,
    retail_query,
    retail_schema,
)


def main() -> None:
    schema = retail_schema(
        datetime.date(2006, 1, 1), datetime.date(2008, 1, 1)
    )
    workflow = retail_query(schema)
    records = generate_sales(schema, 60_000, seed=4)

    print("Key derivation over the calendar hierarchy:")
    print(explain_derivation(workflow))
    key = minimal_feasible_key(workflow)
    date = schema.attribute("date").hierarchy
    print(
        "\nthe month(-1,0) annotation came from convert_range"
        f"(-1,-1, month->month) composed with the roll-ups; converting a "
        f"one-month reach to days would be {date.convert_range(-1, 0, 'month', 'day')}"
    )

    cluster = SimulatedCluster(ClusterConfig(machines=12))
    outcome = ParallelEvaluator(cluster).evaluate(workflow, records)
    print("\nsimulated run:", outcome.job.summary())

    growth = outcome.result["region_growth"]
    best = max(growth.items(), key=lambda item: item[1])
    worst = min(growth.items(), key=lambda item: item[1])
    month_names = [
        (datetime.date(2006, 1, 1) + datetime.timedelta(days=31 * m))
        .strftime("%Y-%m")
        for m in range(24)
    ]
    print("\nstrongest regional month-over-month swings:")
    for (region, _p, month), value in (best, worst):
        print(
            f"  {decode_region(region, schema):<6} ~{month_names[min(month, 23)]}: "
            f"{value:+.1%}"
        )

    print("\nprocess-parallel backend (same plan machinery, real OS "
          "processes):")
    with MultiprocessEvaluator(
        processes=2, expressions={"growth": GROWTH}
    ) as mp:
        mp_result, report = mp.evaluate(workflow, records)
    agree = all(
        len(mp_result[name]) == len(outcome.result[name])
        for name in workflow.names
    )
    print(
        f"  {report.blocks} blocks over {report.partitions} partitions, "
        f"{report.replicated_records} shipped records; "
        f"row counts agree with the simulated run: {agree}"
    )


if __name__ == "__main__":
    main()
