"""Pragma comments: targeted, justified suppression of lint findings.

A violation may be deliberate — a fuzz oracle's ``except`` that
swallows the one error family it expects *is* the pass condition. Such
exceptions are annotated in place::

    except BinaryNameError:  # lint: disable=no-silent-except -- the fuzz contract under test

The justification text after ``--`` is mandatory: a pragma without one
does not suppress anything and is itself reported (``bad-pragma``), so
unexplained escapes cannot accumulate. A pragma on a comment-only line
applies to the next source line; a pragma that suppresses nothing is
reported as ``useless-pragma`` so stale escapes expire from the
codebase the way soft-state name records expire from a resolver.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: Matches ``disable=rule-a,rule-b -- why`` after the pragma marker.
PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?:\s*--\s*(\S.*?))?\s*$"
)


@dataclass
class Pragma:
    """One parsed ``# lint: disable=...`` comment."""

    #: Source line the pragma *applies to* (the code line).
    line: int
    #: Physical line the comment sits on (== ``line`` for trailing pragmas).
    declared_line: int
    rules: Tuple[str, ...]
    justification: str
    #: Rules this pragma actually suppressed, filled in by the engine.
    used_for: Set[str] = field(default_factory=set)

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())


def _comment_tokens(text: str) -> List[Tuple[int, str]]:
    """``(line, comment)`` for every comment token, via ``tokenize``.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma text
    inside string literals from being misread as real pragmas.
    """
    out: List[Tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Fall back to a line scan; the file failed to tokenize and the
        # engine will surface a parse-error finding for it anyway.
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                out.append((lineno, line[line.index("#"):]))
    return out


def parse_pragmas(text: str) -> Dict[int, Pragma]:
    """Map *applicable* line number -> Pragma for one source file."""
    lines = text.splitlines()
    pragmas: Dict[int, Pragma] = {}
    for lineno, comment in _comment_tokens(text):
        match = PRAGMA_RE.search(comment)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        justification = (match.group(2) or "").strip()
        target = lineno
        code_before = lines[lineno - 1][: lines[lineno - 1].index("#")].strip() \
            if "#" in lines[lineno - 1] else ""
        if not code_before:
            # Comment-only line: the pragma governs the next source line.
            target = _next_source_line(lines, lineno)
        existing = pragmas.get(target)
        if existing is not None:
            merged = tuple(dict.fromkeys(existing.rules + rules))
            existing.rules = merged
            if justification:
                existing.justification = (
                    f"{existing.justification}; {justification}"
                    if existing.justification
                    else justification
                )
            continue
        pragmas[target] = Pragma(
            line=target,
            declared_line=lineno,
            rules=rules,
            justification=justification,
        )
    return pragmas


def _next_source_line(lines: List[str], after: int) -> int:
    for offset, line in enumerate(lines[after:], start=after + 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return offset
    return after
