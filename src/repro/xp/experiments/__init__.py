"""The evaluation, one module per experiment, each its own workload.

A module holds everything about its experiment: the driver (the spec's
seed, its toggles by their registry names and its params as keyword
arguments in, a :class:`~repro.xp.runner.WorkloadResult` out), its row
or report dataclass, the metrics it exports, its tables, its
``BENCH_*.json`` payload and its :class:`~repro.xp.runner.Workload`
registration. :mod:`repro.xp.workloads` imports every module, which
registers its workloads.

The helpers below are what more than one experiment shares: a sweep's
rows as metrics and as a table, a report's fields as metrics, the
chaos reports' summed counters and their ``observability`` block.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ...obs import merge_counts
from ..runner import SpecRun, Table, WorkloadResult

#: One table column: header, row attribute, format spec.
Column = Tuple[str, str, str]


def report_metrics(report, names: Sequence[str]) -> Dict[str, float]:
    """The named fields of an experiment's native report as matrix
    metrics (counts become floats, rates stay as they are)."""
    return {name: float(getattr(report, name)) for name in names}


def _point_label(point) -> str:
    """A sweep point as a metric-name suffix: ``2.0`` -> ``2``,
    ``"soft-state"`` -> ``soft_state``."""
    text = f"{point:g}" if isinstance(point, float) else str(point)
    return text.replace("-", "_")


def sweep_result(
    rows: list,
    columns: Sequence[Column],
    extra_metrics: Sequence[str] = (),
    timed: bool = False,
) -> WorkloadResult:
    """A sweep's rows as a result. The first column is the point; every
    other column (and each of ``extra_metrics``) is a number
    ``<attribute>_<point>``, a timing when ``timed`` (host-dependent)
    and a metric otherwise."""
    point = columns[0][1]
    fields = [attr for _, attr, _ in columns[1:]] + list(extra_metrics)
    result = WorkloadResult(details={"rows": rows})
    numbers = result.timings if timed else result.metrics
    for row in rows:
        label = _point_label(getattr(row, point))
        for name in fields:
            numbers[f"{name}_{label}"] = float(getattr(row, name))
    return result


def render(title: str, columns: Sequence[Column], rows) -> Table:
    """A table with one line per row and one cell per column."""
    return (
        title,
        [header for header, _, _ in columns],
        [
            [format(getattr(row, attr), spec) for _, attr, spec in columns]
            for row in rows
        ],
    )


def sweep_tables(title: str, columns: Sequence[Column]):
    """The ``suite_tables`` hook of a sweep: its rows as one table."""

    def tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
        return [render(title, columns, run.baseline.details["rows"])]

    return tables


def summed_counters(processes: Iterable, *names: str) -> Dict[str, int]:
    """The named counters summed over ``processes``' uniform
    ``stats.snapshot()`` shape, keyed by name — a chaos report copies
    its resolver/client counter fields with ``**summed_counters(...)``."""
    totals = merge_counts(process.stats.snapshot() for process in processes)
    return {name: int(totals.get(name, 0)) for name in names}


def add_observability(
    payload: dict, labelled_results: Iterable[Tuple[str, WorkloadResult]]
) -> None:
    """Give a chaos ``BENCH_*.json`` payload its ``observability``
    block: ``{label: observability payload}`` over the results of
    observed runs; no block when none was observed."""
    sections = {
        label: result.collector.observability_payload()
        for label, result in labelled_results
        if result.collector is not None
    }
    if sections:
        payload["observability"] = sections
