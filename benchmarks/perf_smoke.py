"""Perf smoke: the deterministic Figure-12 bench gated by repro-bench-gate.

Runs the fig12 lookup curve (same workload seeds as the checked-in
``benchmarks/results/BENCH_lookup.json``) and the memo ablation (the
``fig12-memo`` spec of the ``lookup`` workload), then:

1. hands the freshly-measured payload and the checked-in baseline to
   the :mod:`repro.xp.gate` comparison — the same machinery behind the
   ``repro-bench-gate`` console tool — with one explicit rule: the
   uncached lookup cost at the largest tree size may not regress by
   more than the threshold (default 20%, ``lower`` is better). The
   rest of the wall-clock payload stays informational, and the gate
   **exits non-zero on regression**;
2. rewrites ``BENCH_lookup.json`` with the new numbers (CI uploads it
   as an artifact; a release commit checks it in as the next baseline).

Wall-clock noise is handled the way the baseline itself was produced:
the curve is measured ``--repeats`` times and each point keeps its best
(minimum) per-lookup time, which is the standard low-noise statistic
for a single-threaded CPU-bound loop.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--repeats 3]
        [--threshold 0.20] [--baseline PATH] [--output PATH] [--dry-run]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))  # for _report
from _report import RESULTS_DIR  # noqa: E402

from repro.experiments.fig12 import (  # noqa: E402
    run_lookup_experiment,
    write_bench_lookup_json,
)
from repro.xp import run_spec  # noqa: E402
from repro.xp.gate import (  # noqa: E402
    MetricRule,
    compare_artifacts,
    render_gate_report,
)
from repro.xp.workloads import (  # noqa: E402
    FIG12_MEMO_SPEC,
    memo_ablation_block,
)

#: The curve protocol: same points and seeds as the checked-in
#: baseline, and the paper's own 1000 lookups per point (Section 5.1.1
#: times "1000 random lookups" at each size). Comparing a different
#: workload would be comparing two different experiments.
CURVE_POINTS = (100, 2500, 5000)
LOOKUPS_PER_POINT = 1000


def measure_curve(repeats: int) -> list:
    """The fig12 curve, each point at its best-of-``repeats`` time."""
    best: list = None
    for _ in range(repeats):
        rows = run_lookup_experiment(
            name_counts=CURVE_POINTS, lookups_per_point=LOOKUPS_PER_POINT
        )
        if best is None:
            best = rows
        else:
            best = [
                row if row.mean_lookup_us < kept.mean_lookup_us else kept
                for kept, row in zip(best, rows)
            ]
    return best


def gate_rules(curve, threshold: float) -> list:
    """The perf-smoke gate as explicit metric rules: the tree sizes
    must match exactly (two different sweeps are not comparable), and
    the uncached lookup cost at the largest size may not regress past
    the threshold. Everything else in the wall-clock payload is left to
    the ``fig12-lookup`` family default (informational)."""
    largest = len(curve) - 1
    return [
        MetricRule("curve[*].names_in_tree", tolerance=0.0, direction="both"),
        MetricRule(
            f"curve[{largest}].mean_lookup_us",
            tolerance=threshold,
            direction="lower",
        ),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional regression (0.20 = 20%%)")
    parser.add_argument(
        "--baseline",
        default=os.path.join(RESULTS_DIR, "BENCH_lookup.json"),
        help="checked-in BENCH_lookup.json to compare against",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(RESULTS_DIR, "BENCH_lookup.json"),
        help="where to write the fresh BENCH_lookup.json",
    )
    parser.add_argument("--dry-run", action="store_true",
                        help="measure and compare, but do not rewrite the json")
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"perf-smoke: no usable baseline ({error}); measuring only")
        baseline = None

    curve = measure_curve(args.repeats)
    ablation = memo_ablation_block(run_spec(FIG12_MEMO_SPEC, timing=True))

    for row in curve:
        print(
            f"perf-smoke: {row.names_in_tree:>6} names  "
            f"{row.mean_lookup_us:7.2f} us/lookup  "
            f"{row.lookups_per_second:10.0f} lookups/s"
        )
    print(f"perf-smoke: memo speedup {ablation['speedup']:.1f}x")

    if args.dry_run:
        # The writer both writes and returns the payload; a dry run
        # only wants the return value.
        payload = write_bench_lookup_json(os.devnull, curve, ablation)
    else:
        payload = write_bench_lookup_json(args.output, curve, ablation)
        print(f"perf-smoke: wrote {args.output}")

    if baseline is None:
        return 0
    report = compare_artifacts(
        payload,
        baseline,
        rules=gate_rules(curve, args.threshold),
        family="fig12-lookup",
    )
    print(render_gate_report(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
