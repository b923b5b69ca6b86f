"""``repro-xp`` — run the declarative ablation matrix from the shell.

``repro-xp run`` executes a suite of experiment specs (the committed
default suite unless filtered), writes the schema-versioned
``BENCH_matrix.json`` and, when asked, every result table the suite
renders (the figures and ablations under ``benchmarks/results/``).
``repro-xp list`` shows the registered workloads, their toggles and
the committed suite with its stable run ids.

This is the only place a timestamp enters an artifact: the matrix body
is a deterministic function of the specs, and ``--timestamp`` stamps
``generated_at`` *after* the run, so the committed artifact stays
byte-reproducible without it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .report import build_matrix_report, write_bench_matrix_json, write_tables
from .runner import WORKLOADS, run_suite
from .schema import validate_artifact
from .spec import TOGGLES, SpecError
from .workloads import default_suite

DEFAULT_OUT = Path("benchmarks") / "results" / "BENCH_matrix.json"


def _cmd_list() -> int:
    print("workloads:")
    for workload_id in sorted(WORKLOADS):
        workload = WORKLOADS[workload_id]
        print(f"  {workload_id}: {workload.description}")
        for toggle in workload.toggles:
            metric, direction = workload.primary_metrics[toggle]
            print(f"    - {toggle} (primary: {metric}, {direction} is better)")
    print("toggles:")
    for toggle in sorted(TOGGLES):
        print(f"  {toggle}: {TOGGLES[toggle]}")
    print("default suite:")
    for spec in default_suite().values():
        print(f"  {spec.run_id()}  {spec.name}  [{spec.workload}, seed {spec.seed}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    suite = default_suite()
    specs = list(suite.values())
    if args.spec:
        unknown = set(args.spec) - set(suite)
        specs = [spec for name, spec in suite.items() if name in args.spec]
        if unknown:
            print(
                f"repro-xp: unknown spec name(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
    if not specs:
        print("repro-xp: nothing to run", file=sys.stderr)
        return 2
    try:
        runs = run_suite(specs, timing=args.timing)
    except SpecError as error:
        print(f"repro-xp: {error}", file=sys.stderr)
        return 2
    payload = build_matrix_report(runs)
    generated_at = (
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if args.timestamp
        else None
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = write_bench_matrix_json(out, payload, generated_at=generated_at)
    validate_artifact(out, payload)
    written = [str(out)]
    if args.tables_dir:
        written.extend(write_tables(runs, args.tables_dir))
    total_runs = sum(1 + len(run.ablations) for run in runs)
    print(
        f"repro-xp: {len(runs)} spec(s), {total_runs} run(s) "
        f"({'with' if args.timing else 'no'} wall-clock timings)"
    )
    for entry in payload["importance_ranking"]:
        print(
            f"  importance {entry['importance']:+.3f}  "
            f"{entry['component']}  [{entry['workload']}: {entry['metric']}]"
        )
    for path in written:
        print(f"  wrote {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-xp",
        description="Run the declarative baseline-vs-ablated experiment matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute specs and write BENCH_matrix.json")
    run_parser.add_argument(
        "--out", default=str(DEFAULT_OUT), help="matrix artifact path"
    )
    run_parser.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="run only the named default-suite spec (repeatable)",
    )
    run_parser.add_argument(
        "--timing",
        action="store_true",
        help="also collect host-dependent timings (non-deterministic section)",
    )
    run_parser.add_argument(
        "--tables-dir",
        metavar="DIR",
        help="also write the suite's result tables (*.txt) here",
    )
    run_parser.add_argument(
        "--timestamp",
        action="store_true",
        help="stamp generated_at (omitted by default so the artifact "
        "is byte-reproducible)",
    )
    sub.add_parser("list", help="show workloads, toggles and the default suite")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
