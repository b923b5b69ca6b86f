"""Metric definitions, result files, and the ``compare`` verdicts.

The tables here are the single definition of what the benchmark
reports; ``BENCHMARK.json`` at the repo root restates them for the
driver and ``test_e2e_smoke.py`` checks the two agree.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.xp.gate import MetricRule, compare_artifacts

from e2e_ledger import LAYERS

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end to end: share of the baseline median it may worsen by
    bound: Optional[float] = None
    #: repeats bit-exactly for a given seed and ``--seconds``;
    #: ``compare`` wants it identical
    exact: bool = False
    #: listed in ``BENCHMARK.json`` and printed in the result line
    contract: bool = True


#: What a user of the system sees; all of it from the untraced run. The
#: benchmark contract takes no metric that reads 0 when all is well
#: (``op_fail_ratio``), none that repeats to the last digit on every run
#: (the virtual latencies are constants of the cost model) and none
#: whose spread across seeds exceeds its bound (``op_p99_us`` with
#: periodic updates on), so those are printed, written and judged by
#: ``compare`` but left out of ``BENCHMARK.json`` and the result line.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "op/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("op_p90_us", "us", "lower", 0.25),
    Metric("op_p99_us", "us", "lower", 0.20, contract=False),
    Metric("op_fail_ratio", "ratio", "lower", exact=True, contract=False),
    Metric("virtual_op_p50_ms", "ms", "lower", exact=True, contract=False),
    Metric("virtual_op_p99_ms", "ms", "lower", exact=True, contract=False),
    Metric("wire_bytes_per_op", "B", "lower", 0.20, exact=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = []
    for layer in LAYERS:
        out += [
            Metric(f"{layer}.self_us_per_op", "us", "lower"),
            Metric(f"{layer}.share", "ratio", "lower"),
            Metric(f"{layer}.calls_per_op", "count", "lower", exact=True),
        ]
    out += [Metric(f"naming.{part}_us", "us", "lower") for part in (
        "parse", "to_wire", "encode", "decode", "canonical_key",
    )]
    out += [
        Metric("message.encode_us", "us", "lower"),
        Metric("message.decode_us", "us", "lower"),
        Metric("message.bytes_per_packet", "B", "lower", exact=True),
        Metric("nametree.lookup_us", "us", "lower"),
        Metric("nametree.lookups_per_op", "count", "lower", exact=True),
        Metric("nametree.memo_hit_ratio", "ratio", "higher", exact=True),
        Metric("nametree.insert_us", "us", "lower"),
        Metric("nametree.expire_us", "us", "lower"),
        Metric("nametree.updates_per_op", "count", "lower", exact=True),
        Metric("netsim.events_per_op", "count", "lower", exact=True),
        Metric("netsim.event_us", "us", "lower"),
        Metric("netsim.events_per_s", "1/s", "higher"),
        Metric("netsim.sends_per_op", "count", "lower", exact=True),
        Metric("netsim.peak_pending_events", "count", "lower", exact=True),
        Metric("netsim.cancelled_ratio", "ratio", "lower", exact=True),
        Metric("resolver.lookups_per_op", "count", "lower", exact=True),
        Metric("resolver.forwards_per_op", "count", "lower", exact=True),
        Metric("resolver.update_names_per_op", "count", "lower", exact=True),
        Metric("resolver.cache_hit_ratio", "ratio", "higher", exact=True),
        Metric("resolver.drops_per_op", "count", "lower", exact=True),
        Metric("resolver.maintenance_share", "ratio", "lower"),
        Metric("client.issue_us", "us", "lower"),
        Metric("client.retries_per_op", "count", "lower", exact=True),
        Metric("obs.span_us", "us", "lower"),
        Metric("obs.spans_per_op", "count", "lower", exact=True),
        Metric("obs.tracing_overhead_ratio", "ratio", "higher"),
        Metric("harness.trace_overhead_ratio", "ratio", "lower"),
        Metric("harness.residual_share", "ratio", "lower"),
        Metric("harness.driver_us_per_op", "us", "lower"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()
METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def as_metrics(values: Dict[str, float], group: Sequence[Metric]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics of ``group``."""
    missing = [m.name for m in group if m.name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in group
    }


def format_metrics(title: str, metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.4f} {entry['unit']}")
    return "\n".join(lines)


def format_cross_check(rows: Iterable[dict]) -> str:
    """``count x unit`` (isolated replay) beside the traced time."""
    lines = [
        "cross-check, us per op: calls/op x isolated unit cost vs traced "
        "inclusive time",
        f"  {'boundary':<30}{'calls/op':>10}{'unit_us':>10}"
        f"{'count*unit':>12}{'traced':>10}{'self':>10}",
    ]
    for row in rows:
        lines.append(
            f"  {row['boundary']:<30}{row['calls_per_op']:>10.3f}"
            f"{row['unit_us']:>10.3f}{row['count_x_unit_us']:>12.3f}"
            f"{row['traced_inclusive_us']:>10.3f}{row['traced_self_us']:>10.3f}"
        )
    return "\n".join(lines)


def write_result(result: dict, name: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Sets of runs, and comparing two of them
# ----------------------------------------------------------------------
def summarize_runs(runs: Sequence[dict]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` from single-run results."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        per_workload = table.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            per_workload.setdefault(name, []).append(entry["value"])
    return table


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


def _all_better(current: Sequence[float], baseline: Sequence[float], better: str) -> bool:
    if better == "higher":
        return min(current) > max(baseline)
    return max(current) < min(baseline)


def _rule(metric: Metric) -> MetricRule:
    """The gate's tolerance is a share of the larger of the two values;
    a bound is a share of the baseline."""
    if metric.exact:
        return MetricRule(metric.name, 0.0, "both")
    bound = metric.bound
    if metric.better == "lower":
        bound = bound / (1.0 + bound)
    return MetricRule(metric.name, bound, metric.better)


def compare_sets(baseline: dict, current: dict) -> List[dict]:
    """One row per (metric, workload) that is judged: delta of the
    medians as a share of the baseline, the bound, and a verdict.
    Bounded metrics are judged by their bound with
    :func:`repro.xp.gate.compare_artifacts`, exact ones must be
    identical; the remaining per-layer timings are not judged."""
    rows: List[dict] = []
    for workload in sorted(baseline["runs"]):
        before = baseline["runs"][workload]
        after = current["runs"].get(workload, {})
        judged = [
            METRICS[name] for name in before
            if name in METRICS and (METRICS[name].exact or METRICS[name].bound is not None)
        ]
        report = compare_artifacts(
            {n: statistics.median(v) for n, v in after.items()},
            {m.name: statistics.median(before[m.name]) for m in judged},
            [_rule(metric) for metric in judged],
        )
        for row in report.rows:
            if row.status == "new":
                continue
            metric = METRICS[row.path]
            verdict = {"improved": "ok", "missing": "regressed"}.get(row.status, row.status)
            widest = max(spread(before[row.path]), spread(after.get(row.path, ())))
            if not metric.exact and row.current is not None and widest > metric.bound:
                # Too noisy to call, unless every run of one side beats
                # every run of the other.
                if _all_better(after[row.path], before[row.path], metric.better):
                    verdict = "ok"
                elif not _all_better(before[row.path], after[row.path], metric.better):
                    verdict = "unresolved"
            delta = None
            if row.current is not None:
                delta = (row.current - row.baseline) / abs(row.baseline) if row.baseline \
                    else float(row.current != row.baseline)
            rows.append({
                "workload": workload,
                "metric": row.path,
                "baseline": row.baseline,
                "current": row.current,
                "delta": delta,
                "bound": 0.0 if metric.exact else metric.bound,
                "spread": widest,
                "verdict": verdict,
            })
    return rows


def _cell(value: Optional[float], spec: str) -> str:
    width = spec.lstrip("+").split(".")[0]
    return format("-", f">{width}") if value is None else format(value, spec)


def format_comparison(rows: Sequence[dict]) -> str:
    lines = [
        f"{'workload':<17}{'metric':<34}{'baseline':>14}{'current':>14}"
        f"{'delta':>9}{'bound':>8}{'spread':>8}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<17}{row['metric']:<34}"
            f"{_cell(row['baseline'], '14.4f')}{_cell(row['current'], '14.4f')}"
            f"{_cell(row['delta'], '+9.3f')}{row['bound']:>8.2f}"
            f"{row['spread']:>8.3f}  {row['verdict']}"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    lines.append(
        "verdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    )
    return "\n".join(lines)
