"""Run-time skew handling (Section V).

The analytical model assumes records spread uniformly over cube space.
When they do not, the optimizer's plan can overload one reducer.  The
counter-measures implemented here mirror the paper's:

* **Simulated dispatch** -- mappers sample their input, push the sample
  through the candidate scheme's key generation, and tally the load each
  reducer would receive; the coordinator picks the candidate with the
  smallest maximum (:func:`simulate_dispatch`, :func:`pick_by_sampling`).
* **Minimum-blocks heuristic** -- refuse plans expected to give a reducer
  fewer than X blocks, bounding the damage a single huge block can do
  (enforced by the optimizer through ``min_blocks_per_reducer``).
* **Key reuse** -- a :class:`KeyCache` remembers keys that balanced well
  before; any cached key that is feasible for a new query (the covering
  relation) can be reused without re-optimization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.cube.batches import RecordBatch
from repro.cube.records import Record
from repro.mapreduce.engine import default_partitioner
from repro.query.workflow import Workflow
from repro.distribution.clustering import BlockScheme
from repro.distribution.derive import minimal_feasible_key
from repro.distribution.keys import DistributionKey


def sample_records(
    records: Sequence[Record], size: int, seed: int = 13
) -> list[Record]:
    """A uniform sample without replacement (the mappers' sampling step)."""
    if size >= len(records):
        return list(records)
    rng = random.Random(seed)
    return rng.sample(list(records), size)


def sample_file_records(file, size: int, seed: int = 13) -> list[Record]:
    """Uniform sample from a DistributedFile without copying the file.

    Index-based: draws ``size`` positions, then reads only the blocks
    containing them -- O(size) record touches instead of materializing
    the whole dataset into a Python list first.
    """
    total = file.num_records
    if size >= total:
        return list(file.records())
    rng = random.Random(seed)
    wanted = sorted(rng.sample(range(total), size))
    sample: list[Record] = []
    offset = 0
    cursor = 0
    for block in file.blocks:
        end = offset + len(block.records)
        while cursor < len(wanted) and wanted[cursor] < end:
            sample.append(block.records[wanted[cursor] - offset])
            cursor += 1
        if cursor >= len(wanted):
            break
        offset = end
    return sample


def simulate_dispatch(
    scheme: BlockScheme,
    sample: Sequence[Record],
    num_reducers: int,
    partitioner: Callable = default_partitioner,
    key_prefix: tuple = (),
) -> list[int]:
    """Records each reducer would receive if *sample* were dispatched.

    *key_prefix* must match what the executor prepends to block keys
    (the workflow-component index) -- reducer assignment is by hash, so
    predicting loads requires hashing the exact keys execution will use.

    The sample is routed as one batched call through the scheme's
    vectorized router; samples that cannot be represented as an integer
    batch fall back to the per-record mapper.  The tallies are identical
    either way.
    """
    loads = [0] * num_reducers
    batch = RecordBatch.from_records(scheme.key.schema, sample)
    if batch is not None and batch.routable():
        for block_key, rows in scheme.make_batch_router()(batch):
            loads[partitioner(key_prefix + block_key, num_reducers)] += (
                len(rows)
            )
        return loads
    mapper = scheme.make_mapper()
    for record in sample:
        for block_key in mapper(record):
            loads[partitioner(key_prefix + block_key, num_reducers)] += 1
    return loads


def scale_loads(
    loads: Sequence[int], sample_size: int, population: int
) -> list[float]:
    """Extrapolate sampled loads to the full dataset."""
    if sample_size <= 0:
        return [0.0] * len(loads)
    factor = population / sample_size
    return [load * factor for load in loads]


def load_imbalance(loads: Sequence[float]) -> float:
    """Max load over the ideal (all-reducer mean) share; 1.0 is balanced.

    Idle reducers count toward the mean: a plan that funnels everything
    into one reducer is exactly what this ratio must expose, whether the
    cause is skewed data or a block count too small for the cluster.
    """
    if len(loads) <= 1 or not any(loads):
        return 1.0
    return max(loads) / (sum(loads) / len(loads))


def detect_skew(loads: Sequence[float], threshold: float = 2.0) -> bool:
    """Flag imbalance: :func:`load_imbalance` above *threshold*."""
    return load_imbalance(loads) > threshold


def sampled_dispatch_table(
    schemes: Sequence[BlockScheme],
    sample: Sequence[Record],
    num_reducers: int,
    partitioner: Callable = default_partitioner,
    key_prefix: tuple = (),
) -> list[tuple[BlockScheme, list[int]]]:
    """Simulated-dispatch loads for *every* candidate scheme.

    The full table behind :func:`pick_by_sampling` -- one ``(scheme,
    per-reducer loads)`` row per candidate, in input order.  The
    optimizer records it into the plan's decision trail so ``repro
    explain`` can show why each candidate lost, not just who won.
    """
    return [
        (
            scheme,
            simulate_dispatch(
                scheme, sample, num_reducers, partitioner, key_prefix
            ),
        )
        for scheme in schemes
    ]


def pick_by_sampling(
    schemes: Sequence[BlockScheme],
    sample: Sequence[Record],
    num_reducers: int,
    partitioner: Callable = default_partitioner,
    key_prefix: tuple = (),
) -> tuple[BlockScheme, list[int]]:
    """The candidate with the smallest simulated maximum load."""
    if not schemes:
        raise ValueError("no candidate schemes to sample")
    table = sampled_dispatch_table(
        schemes, sample, num_reducers, partitioner, key_prefix
    )
    best_scheme, best_loads, best_max = None, None, None
    for scheme, loads in table:
        worst = max(loads, default=0)
        if best_max is None or worst < best_max:
            best_scheme, best_loads, best_max = scheme, loads, worst
    return best_scheme, best_loads


def diversify_schemes(schemes: Iterable[BlockScheme]) -> list[BlockScheme]:
    """Widen a candidate list with significantly different cluster factors.

    The paper's sampling-based selection works best when the candidates
    "have significantly different values of the clustering factor"; this
    adds a geometric ladder of cf variants around each optimizer
    suggestion (deduplicated).
    """
    out: list[BlockScheme] = []
    seen: set = set()
    for scheme in schemes:
        variants = [scheme]
        for attr, cf in scheme.clustering_factors.items():
            ladder = {max(1, cf // 4), max(1, cf // 2), cf * 2, cf * 4}
            for variant_cf in ladder:
                if variant_cf != cf:
                    factors = dict(scheme.clustering_factors)
                    factors[attr] = variant_cf
                    variants.append(BlockScheme(scheme.key, factors))
        for variant in variants:
            identity = (
                variant.key,
                tuple(sorted(variant.clustering_factors.items())),
            )
            if identity not in seen:
                seen.add(identity)
                out.append(variant)
    return out


@dataclass
class KeyCache:
    """Remembers distribution keys that balanced well before.

    A key's quality is a property of the *data distribution*, not of any
    particular query: as long as a cached key is feasible for the new
    query (it covers the new minimal key), it can be reused directly.
    """

    keys: list[DistributionKey] = field(default_factory=list)

    def store(self, key: DistributionKey) -> None:
        if key not in self.keys:
            self.keys.append(key)

    def find(self, workflow: Workflow) -> DistributionKey | None:
        """The first cached key feasible for *workflow*, if any.

        Keys learned on other schemas are skipped (a cache may serve a
        whole session spanning several datasets).
        """
        minimal = minimal_feasible_key(workflow)
        for key in self.keys:
            if key.schema == minimal.schema and key.covers(minimal):
                return key
        return None

    def __len__(self) -> int:
        return len(self.keys)
