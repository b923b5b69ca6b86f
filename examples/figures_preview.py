#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation, scaled down.

The full-size figures are the default suite's specs (``repro-xp run
--tables-dir benchmarks/results``); this script runs reduced versions
of all six figures in about a minute and prints the same tables, so a
reader can see the reproduction working before committing to the full
run.

Run:  python examples/figures_preview.py
"""

from repro.xp import WORKLOADS, ExperimentSpec, run_spec
from repro.xp.experiments.fig08 import saturation_point
from repro.xp.report import format_table


def show(workload: str, **params):
    """Run a scaled-down spec of one of the default suite's workloads,
    print the tables ``repro-xp run`` writes for it and return its rows."""
    spec = ExperimentSpec(
        name=f"preview-{workload}", workload=workload, params=params
    )
    run = run_spec(spec, timing=True)
    for table in WORKLOADS[workload].suite_tables(run, []):
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

    show("lookup-curve", name_counts=(100, 2500, 10000), lookups_per_point=500)

    show("tree-size", name_counts=(100, 2500, 10000))

    show("discovery", max_hops=6)
    print("linear in hops, under 10 ms per hop (the paper's claim)")

    show("routing", name_counts=(250, 2500))
    print("local grows with names (delivery artifact), remote flat, "
          "cross-vspace constant; without the artifact local stays flat")


if __name__ == "__main__":
    main()
