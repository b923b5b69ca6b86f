"""The two-pass whole-program rule engine.

**Pass 1** parses every file exactly once into a :class:`FileContext` —
AST, source lines, import/alias tables, pragma table, and (for files
inside ``repro``) the module's dotted name and layer package — and runs
the per-file rules over it.

**Pass 2** assembles every context into one
:class:`~repro.lint.project.ProjectModel` and runs the project rules
(:class:`~repro.lint.rules.ProjectRule`) over it once — that is where
cross-file properties (entropy taint reachability, protocol-surface
exhaustiveness, node isolation) are checked. Project findings anchor to
real (path, line) spots, so pragma accounting is deferred until after
pass 2: a pragma on a line can suppress a cross-file finding, and a
pragma left behind after the cross-file path is fixed becomes a
``USELESS_PRAGMA`` finding like any other.

The design mirrors how the paper treats correctness state as soft
state: a violation is either fixed or justified in place by a pragma,
and a pragma that no longer suppresses anything is itself a finding, so
suppressions expire instead of accumulating.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .pragmas import Pragma, parse_pragmas

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Findings synthesized by the engine itself (not registered rules).
PARSE_ERROR = "parse-error"
BAD_PRAGMA = "bad-pragma"
USELESS_PRAGMA = "useless-pragma"

#: Directory names never descended into while discovering files.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", "results", "corpus", ".venv"}
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR
    source: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class FileContext:
    """Everything the rules need to know about one parsed file."""

    def __init__(self, path: Path, text: str, root: Optional[Path] = None):
        self.path = Path(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self.root = Path(root) if root is not None else None
        self.rel_path = self._relative_path()
        self.module = self._module_name()
        self.package = self._layer_package()
        self.pragmas: Dict[int, Pragma] = parse_pragmas(text)
        #: local name -> dotted module path (``import x.y as z``).
        self.module_aliases: Dict[str, str] = {}
        #: local name -> dotted origin (``from m import a as b`` -> ``m.a``).
        self.from_imports: Dict[str, str] = {}
        self._index_imports()

    # ------------------------------------------------------------------
    # Path / module identity
    # ------------------------------------------------------------------
    def _relative_path(self) -> str:
        if self.root is None:
            return self.path.as_posix()
        try:
            return self.path.resolve().relative_to(
                self.root.resolve()
            ).as_posix()
        except ValueError:
            return self.path.as_posix()  # outside the lint root

    def _module_name(self) -> Optional[str]:
        """Dotted module name when the file sits inside a ``repro`` tree.

        Anchors on a ``src/repro`` (or bare ``repro``) path segment so it
        works for the real tree and for synthetic trees in tests.
        """
        parts = self.path.resolve().parts if self.path.is_absolute() \
            else self.path.parts
        anchor = None
        for index in range(len(parts) - 1):
            if parts[index] == "src" and parts[index + 1] == "repro":
                anchor = index + 1
        if anchor is None:
            for index, part in enumerate(parts[:-1]):
                if part == "repro":
                    anchor = index
                    break
        if anchor is None:
            return None
        dotted = list(parts[anchor:])
        dotted[-1] = dotted[-1][: -len(".py")] if dotted[-1].endswith(".py") \
            else dotted[-1]
        if dotted[-1] == "__init__":
            dotted.pop()
        return ".".join(dotted)

    def _layer_package(self) -> Optional[str]:
        """Top-level ``repro`` subpackage this module belongs to."""
        if not self.module or not self.module.startswith("repro."):
            return None
        remainder = self.module.split(".")[1:]
        if len(remainder) == 1:
            # repro/__main__.py and other root modules are the public
            # facade above every layer; the layering rule exempts them.
            return None
        return remainder[0]

    # ------------------------------------------------------------------
    # Import / alias tables
    # ------------------------------------------------------------------
    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.module_aliases[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = f"{node.module}.{alias.name}"

    def resolve_name(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a name or attribute chain, through aliases.

        ``rnd.choice`` with ``import random as rnd`` resolves to
        ``random.choice``; ``datetime.now`` with ``from datetime import
        datetime`` resolves to ``datetime.datetime.now``. Names bound by
        assignment (e.g. a seeded ``rng``) resolve to ``None``.
        """
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        if base in self.from_imports:
            origin = self.from_imports[base]
        elif base in self.module_aliases:
            origin = self.module_aliases[base]
        else:
            return None
        return ".".join([origin] + list(reversed(chain)))

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass
class LintResult:
    """Outcome of one engine run over a set of paths."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Ids of the project rules that ran in pass 2.
    project_rules: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


class Engine:
    """Runs the rule pack over files: pass 1 per file, pass 2 project."""

    def __init__(
        self, root: Optional[Path] = None, select: Optional[Iterable[str]] = None
    ):
        # Imported lazily so ``engine`` has no import cycle with ``rules``.
        from .rules import create_rules

        self.root = Path(root) if root is not None else Path.cwd()
        rules = create_rules(select)
        self.file_rules = [
            rule for rule in rules if getattr(rule, "scope", "file") != "project"
        ]
        self.project_rules = [
            rule for rule in rules if getattr(rule, "scope", "file") == "project"
        ]

    # ------------------------------------------------------------------
    # File discovery
    # ------------------------------------------------------------------
    def discover(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_file() and path.suffix == ".py":
                files.append(path)
            elif path.is_dir():
                files.extend(self._walk(path))
        return sorted(set(files), key=lambda p: p.as_posix())

    def _walk(self, directory: Path) -> List[Path]:
        found: List[Path] = []
        for child in sorted(directory.iterdir(), key=lambda p: p.name):
            if child.is_dir():
                if child.name in EXCLUDED_DIRS or child.name.startswith("."):
                    continue
                found.extend(self._walk(child))
            elif child.suffix == ".py":
                found.append(child)
        return found

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, paths: Sequence[Path]) -> LintResult:
        result = LintResult()
        contexts: List[FileContext] = []
        by_path: Dict[str, List[Finding]] = {}
        raw_findings: List[Finding] = []

        # Pass 1: parse + per-file rules. Findings are staged per path,
        # NOT pragma-filtered yet — pass 2 may add more.
        for path in self.discover(paths):
            result.files_scanned += 1
            ctx, errors = self._context_for(path)
            if ctx is None:
                raw_findings.extend(errors)
                continue
            contexts.append(ctx)
            staged = by_path.setdefault(ctx.rel_path, [])
            for rule in self.file_rules:
                staged.extend(rule.check(ctx))

        # Pass 2: whole-program model + project rules, each run once.
        if self.project_rules and contexts:
            from .project import ProjectModel

            model = ProjectModel(contexts, root=self.root)
            for rule in self.project_rules:
                result.project_rules.append(rule.id)
                for finding in rule.check_project(model):
                    by_path.setdefault(finding.path, []).append(finding)

        # Pragma accounting runs last so pragmas can cover cross-file
        # findings — and so a pragma orphaned by a fixed cross-file
        # path surfaces as USELESS_PRAGMA.
        for ctx in contexts:
            raw_findings.extend(
                self._apply_pragmas(
                    ctx, by_path.pop(ctx.rel_path, []), result.suppressed
                )
            )
        for leftovers in by_path.values():  # paths with no context
            raw_findings.extend(leftovers)

        result.findings = sorted(raw_findings, key=Finding.sort_key)
        return result

    def _context_for(
        self, path: Path
    ) -> Tuple[Optional[FileContext], List[Finding]]:
        """``(context, [])`` or ``(None, [parse-error finding])``."""
        rel = self._rel(path)
        try:
            return FileContext(path, path.read_text(encoding="utf-8"),
                               root=self.root), []
        except (OSError, UnicodeDecodeError, SyntaxError, ValueError) as exc:
            lineno = getattr(exc, "lineno", None) or 1
            return None, [Finding(
                rule=PARSE_ERROR,
                path=rel,
                line=int(lineno),
                col=0,
                message=f"could not parse file: {exc}",
            )]

    def lint_text(self, text: str, path: str = "<memory>") -> List[Finding]:
        """Lint one in-memory source string (test/corpus helper).

        Per-file rules only — a single string has no project to model;
        run :meth:`run` over a directory to exercise project rules.
        """
        ctx = FileContext(Path(path), text, root=self.root)
        findings: List[Finding] = []
        for rule in self.file_rules:
            findings.extend(rule.check(ctx))
        return sorted(self._apply_pragmas(ctx, findings), key=Finding.sort_key)

    # ------------------------------------------------------------------
    # Pragma accounting
    # ------------------------------------------------------------------
    def _apply_pragmas(
        self,
        ctx: FileContext,
        findings: List[Finding],
        suppressed_sink: Optional[List[Finding]] = None,
    ) -> List[Finding]:
        kept: List[Finding] = []
        for finding in findings:
            pragma = ctx.pragmas.get(finding.line)
            if pragma is not None and finding.rule in pragma.rules:
                pragma.used_for.add(finding.rule)
                if pragma.justified:
                    if suppressed_sink is not None:
                        suppressed_sink.append(finding)
                    continue
            kept.append(finding)
        rel = ctx.rel_path
        for line in sorted(ctx.pragmas):
            pragma = ctx.pragmas[line]
            if pragma.used_for and not pragma.justified:
                kept.append(
                    Finding(
                        rule=BAD_PRAGMA,
                        path=rel,
                        line=pragma.declared_line,
                        col=0,
                        message=(
                            "pragma suppresses "
                            f"{', '.join(sorted(pragma.used_for))} but gives "
                            "no justification; write "
                            "'# lint: disable=<rule> -- <why>'"
                        ),
                        source=ctx.source_line(pragma.declared_line),
                    )
                )
            elif not pragma.used_for:
                kept.append(
                    Finding(
                        rule=USELESS_PRAGMA,
                        path=rel,
                        line=pragma.declared_line,
                        col=0,
                        message=(
                            f"pragma for {', '.join(pragma.rules)} suppresses "
                            "nothing; remove it"
                        ),
                        severity=SEVERITY_WARNING,
                        source=ctx.source_line(pragma.declared_line),
                    )
                )
        return kept

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()
