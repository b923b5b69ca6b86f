"""Result tables produced by benchmark runs.

Each benchmark records the rows it regenerated; the conftest hook prints
every recorded table in the terminal summary (which pytest never
captures) and the table is written under ``benchmarks/results/`` so
EXPERIMENTS.md can reference stable artifacts. Rendering and file
naming are ``repro.xp.report``'s.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

from repro.xp.report import write_table

_TABLES: List[Tuple[str, Sequence[str], List[Sequence]]] = []

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def record_table(title: str, headers: Sequence[str], rows: List[Sequence]) -> None:
    """Register a result table for the end-of-run report."""
    _TABLES.append((title, headers, rows))
    write_table(RESULTS_DIR, title, headers, rows)


def drain_tables():
    """All recorded tables; clears the registry."""
    global _TABLES
    tables, _TABLES = _TABLES, []
    return tables
