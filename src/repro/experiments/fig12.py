"""Figure 12: name-tree lookup performance.

The paper builds a large random name-tree with r_a = 3, r_v = 3,
n_a = 2, d = 3, varies the number of distinct names n from 100 to
14300, and times 1000 random lookups at each size. Their Java
implementation on a Pentium II 450 sustains ~900 lookups/s at small n,
decaying to ~700 at n = 14300.

We run the identical experiment natively on the Python name-tree (this
is a real-time measurement, not a simulation): the shape to reproduce
is high throughput that decays mildly and smoothly as the tree grows.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ..nametree import NameTree
from .workload import UniformWorkload


@dataclass
class LookupRow:
    """One point of the Figure 12 curve."""

    names_in_tree: int
    lookups_per_second: float
    mean_lookup_us: float


def run_lookup_experiment(
    name_counts: Sequence[int] = (100, 2000, 5000, 10000, 14300),
    lookups_per_point: int = 1000,
    depth: int = 3,
    attribute_range: int = 3,
    value_range: int = 3,
    attributes_per_level: int = 2,
    seed: int = 0,
    memoize: bool = False,
) -> List[LookupRow]:
    """Reproduce Figure 12. Returns one row per tree size.

    The tree is grown incrementally (names are cumulative across
    points), matching how the paper sweeps n upward. ``memoize``
    defaults to off so the curve measures raw LOOKUP-NAME, as the paper
    does; the memo's effect is the ``lookup_memo`` arm of the ``lookup``
    experiment workload.
    """
    counts = sorted(set(name_counts))
    rng = random.Random(seed)
    workload = UniformWorkload(
        rng=rng,
        depth=depth,
        attribute_range=attribute_range,
        value_range=value_range,
        attributes_per_level=attributes_per_level,
    )
    names = workload.distinct_names(counts[-1])
    query_source = UniformWorkload(
        rng=random.Random(seed + 1),
        depth=depth,
        attribute_range=attribute_range,
        value_range=value_range,
        attributes_per_level=attributes_per_level,
    )
    queries = [query_source.random_name() for _ in range(lookups_per_point)]

    tree = NameTree(memoize=memoize)
    inserted = 0
    rows: List[LookupRow] = []
    from ..nametree import AnnouncerID, Endpoint, NameRecord

    for count in counts:
        while inserted < count:
            record = NameRecord(
                announcer=AnnouncerID.generate(f"fig12-{inserted}"),
                endpoints=[Endpoint(host=f"fig12-{inserted}", port=1)],
            )
            tree.insert(names[inserted], record)
            inserted += 1
        started = time.perf_counter()
        for query in queries:
            tree.lookup(query)
        elapsed = time.perf_counter() - started
        rows.append(
            LookupRow(
                names_in_tree=count,
                lookups_per_second=lookups_per_point / elapsed,
                mean_lookup_us=elapsed / lookups_per_point * 1e6,
            )
        )
    return rows


def bench_lookup_payload(
    curve: Sequence[LookupRow], memo_ablation: Optional[dict] = None
) -> dict:
    """The ``BENCH_lookup.json`` payload: the Figure-12 curve plus the
    cached-vs-uncached ablation block (built from the ``lookup``
    workload's run by ``repro.xp.workloads.memo_ablation_block``), a
    machine-readable perf trajectory to compare later runs against."""
    return {
        "benchmark": "fig12-lookup",
        "schema_version": 3,
        "curve": [asdict(row) for row in curve],
        "memo_ablation": memo_ablation,
    }
