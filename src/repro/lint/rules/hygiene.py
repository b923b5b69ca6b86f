"""Hygiene rule ``no-silent-except``: no error-masking handlers.

The protocol handlers (INR/DSR dispatch, reliable channel, client retry
loop) are where faults surface. A bare ``except:`` also catches
``SystemExit``/``KeyboardInterrupt``; an ``except`` whose body is only
``pass``/``continue`` erases the fault the chaos harness is trying to
observe. Count it, log it, or re-raise.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding
from . import Rule, register


@register
class SilentExceptRule(Rule):
    id = "no-silent-except"
    summary = (
        "no bare except, and no handler that swallows the exception "
        "without recording it"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except also catches SystemExit and "
                    "KeyboardInterrupt; name the exception type "
                    "(at minimum 'except Exception')",
                )
            elif self._swallows(node):
                yield self.finding(
                    ctx,
                    node,
                    "handler silently swallows the exception, hiding "
                    "protocol faults from the chaos invariants; count "
                    "it in stats, log it, or re-raise",
                )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring / ellipsis placeholder
            return False
        return True
