"""Compare a freshly measured payload against a baseline payload.

The gate flattens two JSON payloads into dotted metric paths
(``suite[3].baseline.metrics.success_rate``), applies per-metric rules
— a tolerance plus a direction saying which way is better — and fails
when any gated metric regressed beyond its tolerance or disappeared.
Paths no rule matches are gated exactly by default: any drift in a
deterministic number is a real behavior change, not noise. Wall-clock
payloads pass an informational default and gate a few paths through
explicit rules with honest tolerances, which is what
``benchmarks/perf_smoke.py`` and ``benchmarks/e2e/e2e_report.py`` do.
The committed deterministic files need no gate of their own: CI
regenerates them and compares the bytes.

Pure comparison logic: no clocks, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence

DIRECTIONS = ("higher", "lower", "both", "info")


@dataclass(frozen=True)
class MetricRule:
    """How one family of metric paths is judged.

    ``pattern`` is an ``fnmatch`` glob over flattened paths, with one
    adjustment: ``[`` is literal (it introduces list indices in paths,
    not character classes), so ``curve[4].mean_lookup_us`` names that
    exact path and ``curve[*].names_in_tree`` covers every index.
    ``higher``
    / ``lower`` say which direction is *better* (only harmful drift
    beyond ``tolerance`` fails); ``both`` fails on drift in either
    direction; ``info`` reports and never fails. ``tolerance`` is a
    bound on the relative change |current - baseline| / max(|baseline|,
    |current|) — 0.0 is an exact gate.
    """

    pattern: str
    tolerance: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, not {self.direction!r}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")


EXACT_RULE = MetricRule("*", tolerance=0.0, direction="both")


def flatten(payload: object, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a JSON payload as {dotted.path: value}.
    Strings, booleans and nulls are configuration, not measurements,
    and are not gated."""
    out: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key in payload:
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(payload[key], path))
    elif isinstance(payload, list):
        for index, element in enumerate(payload):
            out.update(flatten(element, f"{prefix}[{index}]"))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        out[prefix] = float(payload)
    return out


@dataclass
class GateRow:
    """One compared metric path."""

    path: str
    baseline: Optional[float]
    current: Optional[float]
    #: bounded relative change, signed (None when either side missing)
    relative: Optional[float]
    #: "ok" | "regressed" | "improved" | "missing" | "new" | "info"
    status: str
    rule: MetricRule


@dataclass
class GateReport:
    """The verdict of one payload-vs-baseline comparison."""

    rows: List[GateRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[GateRow]:
        return [r for r in self.rows if r.status in ("regressed", "missing")]

    @property
    def improvements(self) -> List[GateRow]:
        return [r for r in self.rows if r.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _relative(baseline: float, current: float) -> float:
    scale = max(abs(baseline), abs(current))
    return (current - baseline) / scale if scale else 0.0


def _path_match(path: str, pattern: str) -> bool:
    """``fnmatch`` with ``[`` made literal: flattened paths use
    ``name[3]`` for list elements, and a rule writing ``curve[4]`` (or
    ``curve[*]``) means that bracketed index, never a character class.
    ``[[]`` is fnmatch's own escape for a literal ``[``."""
    return fnmatchcase(path, pattern.replace("[", "[[]"))


def _match(rules: Sequence[MetricRule], default: MetricRule, path: str) -> MetricRule:
    for rule in rules:
        if _path_match(path, rule.pattern):
            return rule
    return default


def compare_artifacts(
    current: dict,
    baseline: dict,
    rules: Sequence[MetricRule] = (),
    default_rule: MetricRule = EXACT_RULE,
) -> GateReport:
    """Judge ``current`` against ``baseline``. ``rules`` are consulted
    in order, first match wins; paths matching no rule fall to
    ``default_rule`` (exact unless the caller says otherwise)."""
    base_flat = flatten(baseline)
    current_flat = flatten(current)
    report = GateReport()
    for path in sorted(base_flat):
        rule = _match(rules, default_rule, path)
        before = base_flat[path]
        if path not in current_flat:
            status = "info" if rule.direction == "info" else "missing"
            report.rows.append(GateRow(path, before, None, None, status, rule))
            continue
        after = current_flat[path]
        relative = _relative(before, after)
        if rule.direction == "info":
            status = "info"
        elif rule.direction == "both":
            status = "ok" if abs(relative) <= rule.tolerance else "regressed"
        else:
            harmful = -relative if rule.direction == "higher" else relative
            if harmful > rule.tolerance:
                status = "regressed"
            elif -harmful > rule.tolerance:
                status = "improved"
            else:
                status = "ok"
        report.rows.append(
            GateRow(path, before, after, relative, status, rule)
        )
    for path in sorted(set(current_flat) - set(base_flat)):
        rule = _match(rules, default_rule, path)
        report.rows.append(
            GateRow(path, None, current_flat[path], None, "new", rule)
        )
    return report


def render_gate_report(report: GateReport, max_rows: int = 25) -> str:
    """A human-readable delta report: verdict first, then the rows that
    matter (regressions, then improvements), then bookkeeping."""
    lines: List[str] = []
    counts = {"ok": 0, "info": 0, "new": 0}
    for row in report.rows:
        if row.status in counts:
            counts[row.status] += 1
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(
        f"bench-gate: {verdict} — "
        f"{len(report.regressions)} regression(s), "
        f"{len(report.improvements)} improvement(s), "
        f"{counts['ok']} within tolerance, {counts['info']} informational, "
        f"{counts['new']} new"
    )

    def cell(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:g}"

    shown = 0
    for title, rows in (
        ("regressions", report.regressions),
        ("improvements", report.improvements),
    ):
        if not rows:
            continue
        lines.append(f"  {title}:")
        for row in rows:
            if shown >= max_rows:
                lines.append(f"    ... ({len(rows)} total, output truncated)")
                break
            drift = (
                f"{row.relative * 100:+.2f}%"
                if row.relative is not None
                else "missing from current artifact"
            )
            bound = (
                f"tolerance {row.rule.tolerance * 100:g}%, "
                f"{row.rule.direction} is better"
                if row.rule.direction in ("higher", "lower")
                else f"tolerance {row.rule.tolerance * 100:g}%"
            )
            lines.append(
                f"    {row.path}: {cell(row.baseline)} -> "
                f"{cell(row.current)} ({drift}; {bound})"
            )
            shown += 1
    return "\n".join(lines)
