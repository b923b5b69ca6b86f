"""Alternating parent/change pairs of the whole-domain benchmark.

    python3 benchmarks/ab_pairs.py <parent-ref> --workload steady-mix \\
        [--pairs 10] [--seed 1]
    python3 benchmarks/ab_pairs.py <parent-ref> --workload all

The protocol of the choosing-metrics guide, section 8, as one command:
the parent commit is exported (``git archive``) into a temporary
directory, each pair runs both sides' *own* ``benchmarks/e2e/run.py
--trace 0`` one process at a time for the ``run_seconds`` that
``BENCHMARK.json`` fixes, which side goes first alternates from pair to
pair, and every end-to-end metric ``BENCHMARK.json`` declares is
reported as each side's median and quartiles, the pairs the
change won, and a verdict:

- ``gain``       the change won at least nine tenths of the pairs (ties
                 count for neither side) and the medians lie further
                 apart than the parent's own quartiles;
- ``regressed``  the change's median is worse by more than the metric's
                 bound;
- ``unresolved`` the parent's quartile spread is wider than the bound
                 and some run of the change reads no better than some
                 run of the parent;
- ``ok``         otherwise.

Each workload's table is followed by one line holding a JSON object
with every run. ``--workload all`` measures every workload that
``BENCHMARK.json`` declares, one after the other, against one export of
the parent. After the last table comes the verdict of the whole run, one
line per workload (``n ok / n unresolved / n gain / n regressed``), and
the exit status is 1 if any row reads ``regressed`` or a metric that is
a count of the simulation (``wire_bytes_per_op``) differs between the
sides at all. This is a measuring tool for the PR author; nothing in CI
gates on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: Metrics the simulation determines: equal seeds give equal values, so
#: any difference between the sides is a change of behaviour.
EXACT = ("wire_bytes_per_op",)
WORDS = ("ok", "unresolved", "gain", "regressed")


def export(ref: str, into: Path) -> None:
    """Unpack the committed files of ``ref`` into ``into``."""
    archive = into.with_suffix(".tar")
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), ref],
        check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def run_once(side: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced run of ``side``'s own benchmark; its contract metrics."""
    done = subprocess.run(
        [
            sys.executable, str(RUNNER), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=side, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(
            f"ab_pairs: {side} exited {done.returncode} "
            f"(3 = determinism twin differed)\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"]:
        sys.exit(f"ab_pairs: {side}: {result['failed']} of {result['attempted']} ops failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: List[float], change: List[float], higher_is_better: bool,
            bound: float) -> Dict[str, object]:
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    improvement = sign * (c_median - p_median)
    spread = p_q3 - p_q1
    scale = abs(p_median) or 1.0
    if wins >= 0.9 * len(parent) and improvement > spread:
        word = "gain"
    elif -improvement / scale > bound:
        word = "regressed"
    elif spread / scale > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        word = "unresolved"
    else:
        word = "ok"
    return {
        "parent": [p_q1, p_median, p_q3],
        "change": [c_q1, c_median, c_q3],
        "ratio": c_median / p_median if p_median else float("nan"),
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "verdict": word,
    }


def measure(sides: Dict[str, Path], workload: str, args, contract: dict):
    """Run the pairs of one workload; print its table and its JSON line.
    Returns its line of the closing summary, and whether it fails the run."""
    seconds = contract["run_seconds"]
    declared = {metric["name"]: metric for metric in contract["end_to_end"]}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, args.seed, seconds))
        print(
            f"{workload} pair {pair + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
                f"{name} {runs['parent'][-1][name]:.4g}->{runs['change'][-1][name]:.4g}"
                for name in declared
            ),
            file=sys.stderr,
        )
    print(
        f"{workload}  seed {args.seed}  {seconds:g} s  {args.pairs} alternating "
        f"pairs  parent {args.parent}"
    )
    print(
        f"  {'metric':<18} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
        f"{'ratio':>7} {'wins':>6}  verdict"
    )
    verdicts = {}
    for name, metric in declared.items():
        row = verdicts[name] = verdict(
            [run[name] for run in runs["parent"]],
            [run[name] for run in runs["change"]],
            metric["better"] == "higher", metric["bound"],
        )
        print(
            f"  {name:<18} "
            f"{'/'.join(f'{v:.4g}' for v in row['parent']):>32} "
            f"{'/'.join(f'{v:.4g}' for v in row['change']):>32} "
            f"{row['ratio']:>7.3f} {row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    print(json.dumps({
        "workload": workload, "seed": args.seed, "seconds": seconds,
        "parent_ref": args.parent, "runs": runs, "verdicts": verdicts,
    }), flush=True)
    words = [row["verdict"] for row in verdicts.values()]
    differing = [
        name for name in EXACT
        if {run[name] for run in runs["parent"]} != {run[name] for run in runs["change"]}
    ]
    line = f"{workload:<16} " + " / ".join(
        f"{words.count(word)} {word}" for word in WORDS
    ) + "".join(f" / {name} differs" for name in differing)
    return line, bool(differing) or "regressed" in words


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", required=True, choices=declared + ["all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as scratch:
        parent_root = Path(scratch) / "parent"
        export(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        summary = [
            measure(sides, workload, args, contract)
            for workload in (declared if args.workload == "all" else [args.workload])
        ]
    print("\n".join(line for line, _ in summary))
    return int(any(failed for _, failed in summary))


if __name__ == "__main__":
    sys.exit(main())
