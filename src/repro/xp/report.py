"""Matrix reports: baseline-vs-ablated deltas and importance ranking.

Pure report assembly — no clocks, no randomness. Everything in the
payload is a deterministic function of the executed
:class:`~.runner.SpecRun` list, so two runs of the same suite write
byte-identical ``BENCH_matrix.json`` files.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..obs import write_canonical_json
from .gate import flatten
from .runner import SpecRun, WORKLOADS
from .spec import SpecError
from .workloads import _family

#: Version of the ``BENCH_matrix.json`` artifact layout.
MATRIX_SCHEMA_VERSION = 1


def _round(value: float) -> float:
    """Stable rounding for derived ratios (raw metrics stay raw)."""
    return round(value, 6)


def metric_deltas(
    baseline: Dict[str, float], ablated: Dict[str, float]
) -> Dict[str, dict]:
    """Per-metric baseline-vs-ablated deltas over the shared keys."""
    deltas: Dict[str, dict] = {}
    for key in sorted(set(baseline) & set(ablated)):
        before, after = baseline[key], ablated[key]
        if isinstance(before, bool) or isinstance(after, bool):
            before, after = float(before), float(after)
        scale = max(abs(before), abs(after))
        deltas[key] = {
            "baseline": before,
            "ablated": after,
            "delta": _round(after - before),
            # Bounded relative delta in [-1, 1]: |a - b| / max(|a|, |b|)
            # signed by the direction of change, defined even when the
            # baseline is exactly zero (fully-saved work, say).
            "relative": _round((after - before) / scale) if scale else 0.0,
        }
    return deltas


def importance(
    baseline: float, ablated: float, direction: str
) -> float:
    """Oriented, bounded importance of one component on one metric.

    Positive: removing the component made the metric *worse* (the
    component helps). Negative: removing it made the metric better —
    the component is overhead on this metric (observability tracing on
    a latency slope, say), which is exactly what an honest ablation
    should surface. Normalized by max(|baseline|, |ablated|), so the
    value is in [-1, 1] and defined when the baseline is zero.
    """
    scale = max(abs(baseline), abs(ablated))
    if not scale:
        return 0.0
    harm = (baseline - ablated) if direction == "higher" else (ablated - baseline)
    return _round(harm / scale)


def build_matrix_report(runs: Sequence[SpecRun]) -> dict:
    """Fold executed spec runs into the ``BENCH_matrix.json`` payload."""
    suite: List[dict] = []
    ranking: Dict[str, dict] = {}
    for run in runs:
        workload = WORKLOADS[run.spec.workload]
        entry = {
            "name": run.spec.name,
            "workload": run.spec.workload,
            "seed": run.spec.seed,
            "run_id": run.spec.run_id(),
            "params": dict(run.spec.params),
            "toggles": dict(run.toggles),
            "baseline": _result_section(run.baseline, run.timing),
            "ablations": {},
        }
        for toggle, result in sorted(run.ablations.items()):
            metric, direction = workload.primary_metrics[toggle]
            deltas = metric_deltas(run.baseline.metrics, result.metrics)
            section = _result_section(result, run.timing)
            section["run_id"] = run.spec.run_id(ablate=toggle)
            section["deltas"] = deltas
            score = None
            if metric in run.baseline.metrics and metric in result.metrics:
                score = importance(
                    float(run.baseline.metrics[metric]),
                    float(result.metrics[metric]),
                    direction,
                )
                section["primary"] = {
                    "metric": metric,
                    "direction": direction,
                    "importance": score,
                }
            entry["ablations"][toggle] = section
            if score is None:
                continue
            candidate = {
                "component": toggle,
                "importance": score,
                "workload": run.spec.workload,
                "spec": run.spec.name,
                "metric": metric,
                "direction": direction,
                "baseline": float(run.baseline.metrics[metric]),
                "ablated": float(result.metrics[metric]),
            }
            held = ranking.get(toggle)
            if held is None or abs(score) > abs(held["importance"]):
                ranking[toggle] = candidate
        suite.append(entry)
    ranked = sorted(
        ranking.values(),
        key=lambda row: (-abs(row["importance"]), row["component"]),
    )
    from .spec import TOGGLES  # local to keep module deps acyclic in docs

    return {
        "benchmark": "xp-matrix",
        "schema_version": MATRIX_SCHEMA_VERSION,
        "engine": {
            "toggles": {
                toggle: TOGGLES[toggle]
                for toggle in sorted(
                    {t for run in runs for t in run.ablations}
                )
            },
        },
        "suite": suite,
        "importance_ranking": ranked,
    }


def _result_section(result, timing: bool) -> dict:
    section: dict = {"metrics": _plain_metrics(result.metrics)}
    if timing and result.timings:
        section["timings"] = _plain_metrics(result.timings)
    if result.collector is not None:
        # Uniform obs ingestion: the deterministic span summary (names,
        # counts, sim-time durations) — compact enough for the matrix.
        section["observability"] = {
            "span_summary": result.collector.span_summary(),
        }
    return section


def _plain_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    return {
        key: (float(value) if isinstance(value, bool) else value)
        for key, value in sorted(metrics.items())
    }


def write_bench_matrix_json(path: Union[str, Path], payload: dict) -> None:
    """Write the matrix payload as canonical JSON (sorted keys,
    two-space indent, trailing newline — byte-identical for equal
    payloads). Refuses (``ValueError``, nothing written) a NaN or an
    infinity anywhere: JSON has no such number, and a workload says
    "never" as a metric of its own.
    """
    bad = [p for p, v in flatten(payload).items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite metric(s): {', '.join(sorted(bad))}")
    write_canonical_json(path, payload)


# ----------------------------------------------------------------------
# The suite's files: every table (the one slug rule and the one
# renderer) and every named file a workload's ``suite_tables`` returns
# ----------------------------------------------------------------------
def table_filename(title: str) -> str:
    """The ``benchmarks/results/`` filename a table title maps to. A
    *trailing* parenthesized part carries run-specific numbers (fitted
    parameters, slopes) and is stripped so filenames stay stable across
    runs; interior parentheses (e.g. "T(d) model") stay."""
    stem = re.sub(r"\s*\([^()]*\)\s*$", "", title).strip()
    slug = "".join(c if c.isalnum() else "_" for c in stem.lower())
    return f"{slug.strip('_')}.txt"


def format_table(title: str, headers: Sequence[str], rows) -> str:
    """Render one result table: title, rule, left-aligned headers,
    right-aligned cells."""
    headers = [str(h) for h in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def write_tables(
    runs: Sequence[SpecRun], results_dir: Union[str, Path]
) -> Dict[str, List[str]]:
    """Write every table and named file the suite's ``suite_tables``
    hooks return under ``results_dir``; return {path: the spec names it
    came from}. Refuses (``SpecError``, nothing written) a suite in
    which two runs write the same file name, or a family whose folded
    runs the suite does not hold."""
    by_name = {run.spec.name: run for run in runs}
    outputs: Dict[str, Tuple[Union[dict, str], List[str]]] = {}
    for run in runs:
        workload = WORKLOADS[run.spec.workload]
        if workload.suite_tables is None or (workload.timed and not run.timing):
            continue
        family = _family(run, by_name)
        sources = [member.spec.name for member in family] or [run.spec.name]
        for output in workload.suite_tables(run, family):
            if len(output) == 3:
                title, headers, rows = output
                output = (table_filename(title), format_table(title, headers, rows))
            name, content = output
            if name in outputs:
                raise SpecError(
                    f"specs {outputs[name][1][0]!r} and {run.spec.name!r} "
                    f"both write {name}"
                )
            outputs[name] = (content, sources)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    written: Dict[str, List[str]] = {}
    for name, (content, sources) in outputs.items():
        path = results_dir / name
        if isinstance(content, dict):
            write_canonical_json(path, content)
        else:
            path.write_text(content)
        written[str(path)] = sources
    return written
