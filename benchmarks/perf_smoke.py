"""Perf smoke: the Figure-12 lookup bench gated against its baseline.

Runs the fig12 lookup curve (same workload seeds as the checked-in
``benchmarks/results/BENCH_lookup.json``) and the memo ablation (the
default suite's ``fig12-memo`` spec of the ``lookup`` workload), then:

1. hands the freshly-measured payload and the checked-in baseline to
   the :mod:`repro.xp.gate` comparison with one explicit rule: the
   uncached lookup cost at the largest tree size may not regress by
   more than the threshold (default 20%, ``lower`` is better). The
   rest of the wall-clock payload stays informational, and the gate
   **exits non-zero on regression**;
2. checks the fresh numbers against the figure's own acceptance bars
   (:func:`bar_failures`: the memo's speedup and the curve's shape) and
   **exits non-zero** when one fails, baseline or not;
3. rewrites ``BENCH_lookup.json`` with the new numbers (CI uploads it
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

from repro.obs import write_canonical_json
from repro.xp import ExperimentSpec, default_suite, run_spec
from repro.xp.experiments.fig12 import bench_lookup_payload, memo_ablation_block
from repro.xp.gate import MetricRule, compare_artifacts, render_gate_report

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The curve protocol: same points and seeds as the checked-in
#: baseline, and the paper's own 1000 lookups per point (Section 5.1.1
#: times "1000 random lookups" at each size). Comparing a different
#: workload would be comparing two different experiments.
CURVE_POINTS = (100, 2500, 5000)
LOOKUPS_PER_POINT = 1000

#: Wall-clock numbers no rule names are reported, never gated.
INFORMATIONAL = MetricRule("*", direction="info")


def measure_curve(repeats: int) -> list:
    """The fig12 curve, each point at its best-of-``repeats`` time."""
    spec = ExperimentSpec(
        name="perf-smoke-curve",
        workload="lookup-curve",
        params={"name_counts": CURVE_POINTS, "lookups_per_point": LOOKUPS_PER_POINT},
    )
    best: list = None
    for _ in range(repeats):
        rows = run_spec(spec, timing=True).baseline.details["rows"]
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
    the threshold. Everything else in the wall-clock payload falls to
    :data:`INFORMATIONAL`."""
    largest = len(curve) - 1
    return [
        MetricRule("curve[*].names_in_tree", tolerance=0.0, direction="both"),
        MetricRule(
            f"curve[{largest}].mean_lookup_us",
            tolerance=threshold,
            direction="lower",
        ),
    ]


def bar_failures(curve, ablation: dict) -> list:
    """The Figure-12 acceptance bars the fresh measurement misses. The
    memo must be worth having (>= 2x on repeated queries), and the
    uncached curve keeps the paper's mild, smooth decay: throughput
    falls as the tree grows, no step gains more than 15 % (wall-clock
    noise), the per-name cost grows < 25 ns (the paper's Java tree adds
    ~22 ns) and the largest tree still beats 5000 lookups/s (the
    paper's floor is 700/s)."""
    failures = []
    if ablation["speedup"] < 2.0:
        failures.append(f"memo speedup {ablation['speedup']:.2f}x < 2x")
    first, last = curve[0], curve[-1]
    if last.lookups_per_second >= first.lookups_per_second:
        failures.append("lookup throughput does not fall as the tree grows")
    for earlier, later in zip(curve, curve[1:]):
        if later.lookups_per_second > earlier.lookups_per_second * 1.15:
            failures.append(
                f"throughput rises > 15% from {earlier.names_in_tree} "
                f"to {later.names_in_tree} names"
            )
    growth_ns_per_name = (
        (last.mean_lookup_us - first.mean_lookup_us)
        * 1000.0
        / (last.names_in_tree - first.names_in_tree)
    )
    if growth_ns_per_name >= 25.0:
        failures.append(f"lookup cost grows {growth_ns_per_name:.1f} ns/name >= 25")
    if last.lookups_per_second <= 5000:
        failures.append(
            f"{last.lookups_per_second:.0f} lookups/s at "
            f"{last.names_in_tree} names <= 5000"
        )
    return failures


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
    ablation = memo_ablation_block(
        run_spec(default_suite()["fig12-memo"], timing=True)
    )

    for row in curve:
        print(
            f"perf-smoke: {row.names_in_tree:>6} names  "
            f"{row.mean_lookup_us:7.2f} us/lookup  "
            f"{row.lookups_per_second:10.0f} lookups/s"
        )
    print(f"perf-smoke: memo speedup {ablation['speedup']:.1f}x")

    payload = bench_lookup_payload(curve, ablation)
    if not args.dry_run:
        write_canonical_json(args.output, payload)
        print(f"perf-smoke: wrote {args.output}")

    failures = bar_failures(curve, ablation)
    for failure in failures:
        print(f"perf-smoke: FAIL {failure}")
    if baseline is None:
        return 1 if failures else 0
    report = compare_artifacts(
        payload,
        baseline,
        rules=gate_rules(curve, args.threshold),
        default_rule=INFORMATIONAL,
    )
    print(render_gate_report(report))
    return 0 if report.ok and not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
