#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation, scaled down.

The full-size figures are the default suite's specs (``repro-xp run
--tables-dir benchmarks/results``); this script runs reduced versions
of all six figures in about a minute and prints the same tables, so a
reader can see the reproduction working before committing to the full
run.

Run:  python examples/figures_preview.py
"""

from repro.experiments.fig08 import saturation_point
from repro.experiments.fig12 import run_lookup_experiment
from repro.experiments.fig14 import run_discovery_experiment, slope_ms_per_hop
from repro.experiments.fig15 import run_routing_experiment
from repro.xp import WORKLOADS, ExperimentSpec, run_spec
from repro.xp.report import format_table


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def show(workload: str, **params):
    """Run a scaled-down spec of one of the default suite's workloads,
    print the table ``repro-xp run`` writes for it and return its rows."""
    spec = ExperimentSpec(
        name=f"preview-{workload}", workload=workload, params=params
    )
    run = run_spec(spec, timing=True)
    for table in WORKLOADS[workload].suite_tables(run, {}):
        print("\n" + format_table(*table), end="")
    return run.baseline.details["rows"]


def main() -> None:
    rows = show(
        "saturation",
        name_counts=(0, 5000, 10000, 15000, 20000),
        measure_intervals=1,
    )
    print(f"CPU saturates at ~{saturation_point(rows)} names; "
          "bandwidth never reaches the link (the paper's CPU-bound claim)")

    show("partition", name_counts=(1000, 3000, 5000))
    print("partitioning across two machines halves per-machine time")

    banner("Figure 12: name-tree lookup performance (native measurement)")
    rows = run_lookup_experiment(name_counts=(100, 2500, 10000),
                                 lookups_per_point=500)
    print(f"{'names':>6}  {'lookups/s':>10}  {'mean (us)':>9}")
    for row in rows:
        print(f"{row.names_in_tree:>6}  {row.lookups_per_second:>10.0f}  "
              f"{row.mean_lookup_us:>9.1f}")

    show("tree-size", name_counts=(100, 2500, 10000))

    banner("Figure 14: discovery time vs INR hops")
    rows, _ = run_discovery_experiment(max_hops=6)
    print(f"{'hops':>4}  {'ms':>6}")
    for row in rows:
        print(f"{row.hops:>4}  {row.discovery_ms:>6.2f}")
    print(f"slope {slope_ms_per_hop(rows):.2f} ms/hop "
          "(paper: linear, < 10 ms/hop)")

    banner("Figure 15: time to route a 100-packet burst (ms)")
    rows = run_routing_experiment(name_counts=(250, 2500))
    print(f"{'names':>6}  {'local':>7}  {'remote':>7}  {'cross-vspace':>12}")
    for row in rows:
        print(f"{row.names_in_vspace:>6}  {row.local_ms:>7.0f}  "
              f"{row.remote_same_vspace_ms:>7.0f}  "
              f"{row.remote_other_vspace_ms:>12.0f}")
    print("local grows with names (delivery artifact), remote flat, "
          "cross-vspace constant")


if __name__ == "__main__":
    main()
