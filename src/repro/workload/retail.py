"""A retail data-warehouse scenario over a real calendar.

Fact table: one record per sale -- ``(store, product, date, units,
revenue)`` -- with a store -> region hierarchy, a product -> category ->
department hierarchy, and a true calendar (day/month/quarter/year,
irregular month lengths) over a configurable date range.

The canonical analysis (:func:`retail_query`) mixes all four
relationship types over irregular temporal levels:

* daily revenue per store (basic),
* monthly revenue per region (roll-up across both hierarchies),
* each store-month's share of its region-month (alignment),
* month-over-month regional growth (sibling window *at month level*,
  where bucket sizes vary -- the case uniform hierarchies cannot model).
"""

from __future__ import annotations

import datetime
import math
import random

from repro.cube.calendar import calendar_hierarchy
from repro.cube.domains import MappingHierarchy
from repro.cube.records import Attribute, Record, Schema
from repro.query.builder import WorkflowBuilder
from repro.query.functions import RATIO, expression
from repro.query.workflow import Workflow

#: Store fleet: (store id, region) pairs.
STORES = [
    (f"store-{index:02d}", region)
    for index, region in enumerate(
        ["north"] * 6 + ["south"] * 5 + ["east"] * 5 + ["west"] * 4
    )
]

#: Product catalog: (sku, category, department).
PRODUCTS = [
    ("espresso-beans", "coffee", "grocery"),
    ("drip-grind", "coffee", "grocery"),
    ("green-tea", "tea", "grocery"),
    ("earl-grey", "tea", "grocery"),
    ("baguette", "bakery", "grocery"),
    ("croissant", "bakery", "grocery"),
    ("notebook", "stationery", "general"),
    ("ballpoint", "stationery", "general"),
    ("umbrella", "outdoor", "general"),
    ("thermos", "outdoor", "general"),
    ("socks", "apparel", "general"),
    ("scarf", "apparel", "general"),
]

def _growth(current, previous):
    return (current - previous) / previous if previous else math.inf


#: Month-over-month growth: (this - previous) / previous.  A module
#: function, not a lambda, so the expression pickles into workers.
GROWTH = expression(_growth, 2, "growth")


def retail_schema(
    start: datetime.date = datetime.date(2006, 1, 1),
    end: datetime.date = datetime.date(2008, 1, 1),
) -> Schema:
    """Store / product / date dimensions plus units and revenue facts."""
    store = MappingHierarchy(
        "store",
        [name for name, _region in STORES],
        {"region": dict(STORES)},
        base_level_name="outlet",
    )
    product = MappingHierarchy(
        "product",
        [sku for sku, _category, _department in PRODUCTS],
        {
            "category": {sku: cat for sku, cat, _dep in PRODUCTS},
            "department": {cat: dep for _sku, cat, dep in PRODUCTS},
        },
        base_level_name="sku",
    )
    date = calendar_hierarchy("date", start, end)
    return Schema(
        [
            Attribute("store", store),
            Attribute("product", product),
            Attribute("date", date),
        ],
        facts=["units", "revenue"],
    )


def retail_query(schema: Schema) -> Workflow:
    """Daily store revenue -> regional months -> shares and growth."""
    builder = WorkflowBuilder(schema)
    builder.basic(
        "daily_revenue", over={"store": "outlet", "date": "day"},
        field="revenue", aggregate="sum",
    )
    (
        builder.composite(
            "store_month", over={"store": "outlet", "date": "month"}
        )
        .from_children("daily_revenue", aggregate="sum")
    )
    (
        builder.composite(
            "region_month", over={"store": "region", "date": "month"}
        )
        .from_children("store_month", aggregate="sum")
    )
    (
        builder.composite(
            "store_share", over={"store": "outlet", "date": "month"}
        )
        .from_self("store_month")
        .from_parent("region_month")
        .combine(RATIO)
    )
    (
        builder.composite(
            "prev_region_month", over={"store": "region", "date": "month"}
        )
        .window("region_month", attribute="date", low=-1, high=-1,
                aggregate="sum")
    )
    (
        builder.composite(
            "region_growth", over={"store": "region", "date": "month"}
        )
        .from_self("region_month")
        .from_self("prev_region_month")
        .combine(GROWTH)
    )
    return builder.build()


def generate_sales(
    schema: Schema, n_records: int, seed: int = 42
) -> list[Record]:
    """Synthetic sales with weekly and yearly seasonality.

    Revenue follows the product's base price scaled by a weekend bump
    and a smooth annual cycle, so monthly growth numbers have real
    structure for the example to find.
    """
    rng = random.Random(seed)
    n_days = schema.attribute("date").hierarchy.base_cardinality
    n_stores = len(STORES)
    n_products = len(PRODUCTS)
    base_price = {
        index: 2.0 + 3.0 * (index % 5) for index in range(n_products)
    }
    records = []
    for _ in range(n_records):
        day = rng.randrange(n_days)
        store = rng.randrange(n_stores)
        product = rng.randrange(n_products)
        weekend = 1.4 if day % 7 in (5, 6) else 1.0
        season = 1.0 + 0.3 * math.sin(2 * math.pi * (day % 365) / 365)
        units = 1 + min(5, int(rng.expovariate(1.0)))
        revenue = round(
            units * base_price[product] * weekend * season
            * rng.uniform(0.9, 1.1),
            2,
        )
        records.append((store, product, day, units, revenue))
    return records


def decode_store(code: int) -> str:
    return STORES[code][0]


def decode_region(code: int, schema: Schema) -> str:
    hierarchy = schema.attribute("store").hierarchy
    return hierarchy.decode[1][code]
