"""The text reporter over a :class:`~repro.lint.engine.LintResult`."""

from __future__ import annotations

from typing import List

from .engine import LintResult


def render_text(result: LintResult) -> str:
    """``path:line:col: severity [rule] message`` plus a summary."""
    out: List[str] = []
    for finding in result.findings:
        out.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.severity} [{finding.rule}] {finding.message}"
        )
        source = finding.source.strip()
        if source:
            out.append(f"    {source}")
    out.append("")
    out.append(
        f"{result.files_scanned} files scanned: "
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s), "
        f"{len(result.suppressed)} pragma-suppressed"
    )
    return "\n".join(out)
