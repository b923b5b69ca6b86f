"""Figure 12 — name-tree lookup performance.

Paper: with r_a = 3, r_v = 3, n_a = 2, d = 3, their Java tree sustains
~900 lookups/s at small n decaying to ~700 at 14 300 names. We run the
same sweep natively; absolute rates differ with the host, but the mild,
smooth decay is the shape to reproduce. The pytest-benchmark timing
measures a single LOOKUP-NAME call against the largest tree.
"""

import os
import random

from _report import RESULTS_DIR, record_table

from repro.experiments.fig12 import (
    run_lookup_experiment,
    write_bench_lookup_json,
)
from repro.experiments.workload import UniformWorkload
from repro.nametree import NameTree
from repro.xp import WORKLOADS, run_spec
from repro.xp.workloads import FIG12_MEMO_SPEC, memo_ablation_block


def test_fig12_lookup_curve(benchmark):
    rows = benchmark.pedantic(
        lambda: run_lookup_experiment(
            name_counts=(100, 1000, 2500, 5000, 7500, 10000, 14300),
            lookups_per_point=1000,
        ),
        rounds=1,
        iterations=1,
    )
    record_table(
        "Figure 12: name-tree lookup performance (r_a=3, r_v=3, n_a=2, d=3)",
        ["names in tree", "lookups/s", "mean lookup (us)"],
        [
            (
                row.names_in_tree,
                f"{row.lookups_per_second:.0f}",
                f"{row.mean_lookup_us:.1f}",
            )
            for row in rows
        ],
    )
    first, last = rows[0], rows[-1]
    # The paper's shape: throughput decays as the tree grows. This is a
    # wall-clock measurement, so allow small per-step noise while
    # requiring the overall trend to be downward.
    rates = [row.lookups_per_second for row in rows]
    assert last.lookups_per_second < first.lookups_per_second
    for earlier, later in zip(rates, rates[1:]):
        assert later <= earlier * 1.15
    # The per-name cost growth is tiny: the paper's Java tree adds
    # ~22 ns of lookup time per extra name (1.11 -> 1.43 ms across
    # 14 200 names); ours must stay in the same regime (< 25 ns/name).
    growth_ns_per_name = (
        (last.mean_lookup_us - first.mean_lookup_us)
        * 1000.0
        / (last.names_in_tree - first.names_in_tree)
    )
    assert growth_ns_per_name < 25.0
    # And absolute throughput comfortably beats the paper's 700/s floor.
    assert last.lookups_per_second > 5000


def test_fig12_memo_ablation(benchmark):
    """Cached vs uncached LOOKUP-NAME on the repeated-query workload.

    An INR's resolution hot path sees the same few destination names
    over and over between advertisement changes; the per-tree memo
    (keyed by canonical name, invalidated by the tree epoch) turns
    those repeats into hash hits. Emits ``BENCH_lookup.json`` with the
    Figure-12 curve and the ablation numbers.
    """
    run = benchmark.pedantic(
        lambda: run_spec(FIG12_MEMO_SPEC, timing=True), rounds=1, iterations=1
    )
    ablation = memo_ablation_block(run)
    curve = run_lookup_experiment(
        name_counts=(100, 2500, 5000), lookups_per_point=1000
    )
    payload = write_bench_lookup_json(
        os.path.join(RESULTS_DIR, "BENCH_lookup.json"), curve, ablation
    )
    for title, headers, rows in WORKLOADS["lookup"].suite_tables(run):
        record_table(title, headers, rows)
    assert payload["memo_ablation"] == ablation
    # The fast path must be worth having: >= 2x on repeated queries.
    assert ablation["speedup"] >= 2.0
    # Pure periodic refreshes kept the memo warm: each distinct query
    # misses once, every other lookup hits.
    assert ablation["memo_misses"] == ablation["distinct_queries"]
    assert ablation["memo_invalidations"] == 0
    assert ablation["refreshes_during_cached_run"] > 0


def test_fig12_single_lookup_benchmark(benchmark):
    workload = UniformWorkload(rng=random.Random(0))
    tree = NameTree()
    workload.populate_tree(tree, 5000)
    queries = [workload.random_name() for _ in range(256)]
    index = iter(range(1 << 30))

    def one_lookup():
        tree.lookup(queries[next(index) % len(queries)])

    benchmark(one_lookup)
