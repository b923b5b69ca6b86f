"""Pluggable rule pack: base classes, registry, and rule construction.

Rules come in two scopes. A **per-file** rule (:class:`Rule`) is one
AST visitor over a :class:`~repro.lint.engine.FileContext`; the engine
instantiates the pack once per run. A **project** rule
(:class:`ProjectRule`) runs once, after every file has parsed, over the
:class:`~repro.lint.project.ProjectModel` — that is where cross-file
properties (taint reachability, protocol-surface exhaustiveness, node
isolation) live. Both share the id/severity/pragma machinery.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Type

from ..engine import SEVERITY_ERROR, SEVERITY_WARNING, FileContext, Finding

if TYPE_CHECKING:
    from ..project import ProjectModel

#: rule id -> rule class, populated by :func:`register`.
REGISTRY: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    REGISTRY[cls.id] = cls
    return cls


class Rule:
    """Base class for one static-analysis rule."""

    #: Stable identifier used in pragmas and reports.
    id: str = ""
    severity: str = SEVERITY_ERROR
    #: One-line summary shown by ``--list-rules``.
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    # Helper used by every concrete rule.
    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity or self.severity,
            source=ctx.source_line(line),
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (pass 2).

    ``check`` is a no-op — project rules never see individual files;
    the engine calls :meth:`check_project` exactly once per run with
    the assembled model. Findings anchor to real (path, line) spots so
    pragmas apply exactly as for per-file rules.
    """

    #: Marks the rule for the engine's pass-2 scheduling and for
    #: ``--list-rules``.
    scope = "project"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, model: "ProjectModel") -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self,
        model: "ProjectModel",
        path: str,
        line: int,
        message: str,
        col: int = 0,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=severity or self.severity,
            source=model.source_line(path, line),
        )


def create_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the registered pack, or the ``select``-ed part of it."""
    chosen = set(select) if select else set(REGISTRY)
    unknown = chosen - set(REGISTRY)
    if unknown:
        raise ValueError(
            f"unknown rule ids: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(REGISTRY))})"
        )
    return [REGISTRY[rule_id]() for rule_id in sorted(chosen)]


# Importing the rule modules populates REGISTRY as a side effect.
from . import determinism as _determinism  # noqa: E402,F401
from . import flow as _flow  # noqa: E402,F401
from . import hygiene as _hygiene  # noqa: E402,F401
from . import layering as _layering  # noqa: E402,F401
from . import protocol as _protocol  # noqa: E402,F401

__all__ = [
    "REGISTRY",
    "ProjectRule",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "create_rules",
    "register",
]
