"""Figure 12: name-tree lookup performance.

The paper builds a large random name-tree with r_a = 3, r_v = 3,
n_a = 2, d = 3, varies the number of distinct names n from 100 to
14300, and times 1000 random lookups at each size. Their Java
implementation on a Pentium II 450 sustains ~900 lookups/s at small n,
decaying to ~700 at n = 14300.

We run the identical experiment natively on the Python name-tree (this
is a real-time measurement, not a simulation): the shape to reproduce
is high throughput that decays mildly and smoothly as the tree grows.
That curve is the ``lookup-curve`` workload. The ``lookup`` workload is
the memo's home regime at the same tree shape — a few distinct queries
repeated, with periodic refreshes — and its ``lookup_memo`` arm is the
uncached control; ``benchmarks/perf_smoke.py`` folds both into
``BENCH_lookup.json`` (:func:`bench_lookup_payload`).
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ...experiments.workload import UniformWorkload
from ...naming import NameSpecifier
from ...nametree import AnnouncerID, Endpoint, NameRecord, NameTree
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload
from . import sweep_result, sweep_tables


@dataclass
class LookupRow:
    """One point of the Figure 12 curve."""

    names_in_tree: int
    lookups_per_second: float
    mean_lookup_us: float


#: The curve's columns; every one but the first is a timing per point.
COLUMNS = [
    ("names in tree", "names_in_tree", ""),
    ("lookups/s", "lookups_per_second", ".0f"),
    ("mean lookup (us)", "mean_lookup_us", ".1f"),
]


def run_lookup_experiment(
    seed: int,
    name_counts: Sequence[int] = (100, 2000, 5000, 10000, 14300),
    lookups_per_point: int = 1000,
    depth: int = 3,
    attribute_range: int = 3,
    value_range: int = 3,
    attributes_per_level: int = 2,
    memoize: bool = False,
) -> WorkloadResult:
    """Reproduce Figure 12. One row per tree size, every number a
    timing.

    The tree is grown incrementally (names are cumulative across
    points), matching how the paper sweeps n upward. ``memoize``
    defaults to off so the curve measures raw LOOKUP-NAME, as the paper
    does; the memo's effect is the ``lookup_memo`` arm of the ``lookup``
    workload.
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
    return sweep_result(rows, COLUMNS, timed=True)


register_workload(Workload(
    id="lookup-curve",
    description=(
        "Figure 12: uncached LOOKUP-NAME throughput as the tree grows "
        "(wall clock: timings)"
    ),
    run=run_lookup_experiment,
    suite_tables=sweep_tables(
        "Figure 12: name-tree lookup performance (r_a=3, r_v=3, n_a=2, d=3)",
        COLUMNS,
    ),
    timed=True,
))


def run_memo_experiment(
    seed: int,
    lookup_memo: bool,
    names: int = 6000,
    distinct_queries: int = 64,
    lookups: int = 6000,
    refresh_every: int = 100,
    wildcard_attribute: str = "a0",
    depth: int = 3,
    attribute_range: int = 3,
    value_range: int = 3,
    attributes_per_level: int = 2,
) -> WorkloadResult:
    """The memo's home workload: a small distinct-query set issued over
    and over, with pure periodic refreshes mixed in (refreshes keep the
    memo warm instead of flushing it), plus one top-level wild-card
    union. The refresh schedule is identical in every arm so the
    ablation compares like with like; the throughput is a timing."""
    shape = dict(
        depth=depth,
        attribute_range=attribute_range,
        value_range=value_range,
        attributes_per_level=attributes_per_level,
    )
    inserted = UniformWorkload(rng=random.Random(seed), **shape).distinct_names(names)
    query_source = UniformWorkload(rng=random.Random(seed + 1), **shape)
    queries = [query_source.random_name() for _ in range(distinct_queries)]

    def record(index: int) -> NameRecord:
        return NameRecord(
            announcer=AnnouncerID.generate(f"memo-{index}", startup_time=1.0),
            endpoints=[Endpoint(host=f"memo-{index}", port=1)],
        )

    tree = NameTree(memoize=lookup_memo)
    for index, name in enumerate(inserted):
        tree.insert(name, record(index))

    refreshes = 0
    repeated_records = 0
    started = time.perf_counter()
    for index in range(lookups):
        repeated_records += len(tree.lookup(queries[index % distinct_queries]))
        if refresh_every and index % refresh_every == 0:
            refreshes += 1
            tree.insert(
                inserted[index % len(inserted)], record(index % len(inserted))
            )
    elapsed = time.perf_counter() - started

    wildcard = NameSpecifier.parse(f"[{wildcard_attribute}=*]")
    result = WorkloadResult(
        metrics={
            "memo_hits": float(tree.memo_hits),
            "memo_misses": float(tree.memo_misses),
            "memo_invalidations": float(tree.memo_invalidations),
            "memo_served_fraction": (tree.memo_hits / lookups) if lookups else 0.0,
            "refreshes": float(refreshes),
            "repeated_result_records": float(repeated_records),
            "wildcard_matches": float(len(tree.lookup(wildcard))),
        },
        details={
            "names_in_tree": names,
            "distinct_queries": distinct_queries,
            "lookups": lookups,
        },
    )
    if elapsed:
        result.timings["lookups_per_second"] = lookups / elapsed
    return result


def memo_ablation_block(run: SpecRun) -> dict:
    """The ``memo_ablation`` block of ``BENCH_lookup.json``, from a
    timed ``lookup`` run whose baseline arm is memoized: cached vs
    uncached throughput plus the memo counters of the cached arm."""
    cached = run.baseline.timings["lookups_per_second"]
    uncached = run.ablations["lookup_memo"].timings["lookups_per_second"]
    counters = run.baseline.metrics
    scale = run.baseline.details
    return {
        "names_in_tree": scale["names_in_tree"],
        "distinct_queries": scale["distinct_queries"],
        "lookups": scale["lookups"],
        "uncached_lookups_per_second": uncached,
        "cached_lookups_per_second": cached,
        "speedup": cached / uncached,
        "memo_hits": int(counters["memo_hits"]),
        "memo_misses": int(counters["memo_misses"]),
        "refreshes_during_cached_run": int(counters["refreshes"]),
        "memo_invalidations": int(counters["memo_invalidations"]),
    }


def _memo_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    """The wall-clock memo table; it needs timing numbers, so a
    metrics-only run writes nothing."""
    if not run.timing:
        return []
    block = memo_ablation_block(run)
    uncached = block["uncached_lookups_per_second"]
    cached = block["cached_lookups_per_second"]
    return [(
        "Ablation: lookup memo (cached vs uncached, repeated queries)",
        ["mode", "lookups/s", "speedup"],
        [
            ("uncached", f"{uncached:.0f}", "1.0x"),
            ("memoized", f"{cached:.0f}", f"{block['speedup']:.1f}x"),
        ],
    )]


register_workload(Workload(
    id="lookup",
    description=(
        "Figure 12 regime: repeated distinct queries with periodic "
        "refreshes, plus one top-level wild-card union"
    ),
    toggles=("lookup_memo",),
    primary_metrics={"lookup_memo": ("memo_served_fraction", "higher")},
    run=run_memo_experiment,
    suite_tables=_memo_tables,
))


def bench_lookup_payload(
    curve: Sequence[LookupRow], memo_ablation: Optional[dict] = None
) -> dict:
    """The ``BENCH_lookup.json`` payload: the Figure-12 curve plus the
    cached-vs-uncached ablation block (:func:`memo_ablation_block`), a
    machine-readable perf trajectory to compare later runs against."""
    return {
        "benchmark": "fig12-lookup",
        "schema_version": 3,
        "curve": [asdict(row) for row in curve],
        "memo_ablation": memo_ablation,
    }
