"""Benchmark-suite conftest: print recorded result tables at the end.

The terminal summary is not captured by pytest, so the paper-comparison
tables always appear in the run's output (and in bench_output.txt).
"""

from __future__ import annotations

from _report import drain_tables

from repro.xp.report import format_table


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = drain_tables()
    if not tables:
        return
    terminalreporter.section("INS reproduction — regenerated figures")
    for title, headers, rows in tables:
        terminalreporter.write("\n" + format_table(title, headers, rows))
