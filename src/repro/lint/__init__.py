"""``repro.lint`` — static analysis for the INS reproduction.

A pluggable two-pass rule engine with six rules, each kept because it
catches a mutant of the real tree that the tier-1 tests miss. Pass 1
parses every file once (AST plus import/alias and pragma tables) and
runs the per-file rules: hash-order iteration on scheduling/wire paths
(``no-unsorted-iteration``), the declared layer DAG (``layering``) and
swallowed exceptions (``no-silent-except``). Pass 2 assembles every
parse into a whole-program :class:`~repro.lint.project.ProjectModel`
(symbol table, call graph) and runs the project rules over it — ambient
entropy and every call path reaching it (``entropy-taint``),
protocol-surface exhaustiveness (``protocol-exhaustive``) and node
isolation (``node-isolation``) — the properties no single file can
witness. Every file gets the same rules. A violation is fixed or
justified in place with a pragma, and a pragma that suppresses nothing
is itself reported, so escapes expire from the codebase the way the
paper's soft-state name records expire from a resolver.

Run it as ``python -m repro.lint [paths...]`` or via the
``repro-lint`` console script; the full suite also runs as a tier-1
pytest (``tests/lint/test_tree_clean.py``), so CI and pytest share one
source of truth. See ``docs/LINT.md`` for the rule reference.

This package imports nothing else from ``repro`` — it sits outside the
runtime layer DAG it enforces.
"""

from .engine import (
    BAD_PRAGMA,
    PARSE_ERROR,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    USELESS_PRAGMA,
    Engine,
    FileContext,
    Finding,
    LintResult,
)
from .project import ProjectModel
from .report import render_text
from .rules import REGISTRY, ProjectRule, Rule, create_rules, register

__all__ = [
    "BAD_PRAGMA",
    "Engine",
    "FileContext",
    "Finding",
    "LintResult",
    "PARSE_ERROR",
    "ProjectModel",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "USELESS_PRAGMA",
    "create_rules",
    "register",
    "render_text",
]
