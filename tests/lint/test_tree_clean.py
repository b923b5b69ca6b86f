"""Tier-1 blanket scan: the shipped tree passes its own lint.

This replaces the old ``tests/test_determinism_lint.py`` ad-hoc AST
scan. The whole rule pack — per-file *and* project rules — runs over
src, tests, benchmarks, and examples: the same configuration
``python -m repro.lint`` uses, so pytest and CI cannot drift apart.
"""

import pytest

from pathlib import Path

from repro.lint import Engine, render_text
from repro.lint.cli import DEFAULT_PATHS

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tree_result():
    roots = [REPO / name for name in DEFAULT_PATHS if (REPO / name).is_dir()]
    return Engine(root=REPO).run(roots)


def test_shipped_tree_is_lint_clean(tree_result):
    assert tree_result.errors == [], "\n" + render_text(tree_result)
    assert tree_result.warnings == [], "\n" + render_text(tree_result)


def test_blanket_scan_actually_covers_the_tree(tree_result):
    # The repo ships ~300 Python files; a collapsing count means the
    # walker broke, not that the tree shrank.
    assert tree_result.files_scanned > 150


def test_project_rules_ran_in_the_blanket_scan(tree_result):
    # Pass 2 must actually have executed — a clean tree proves nothing
    # if the whole-program rules were silently skipped.
    assert set(tree_result.project_rules) >= {
        "entropy-taint", "node-isolation", "protocol-exhaustive"
    }
