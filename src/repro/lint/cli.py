"""Command-line interface: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 — no error-severity findings (warnings do not fail the
build); 1 — at least one error finding; 2 — usage error. CI runs it
as one step; pytest runs the same engine through the tier-1 blanket
test, so both share one source of truth.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import Engine
from .report import render_text
from .rules import REGISTRY

#: Directories scanned when no paths are given (those that exist).
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the INS reproduction: determinism, "
            "layering, and protocol-hygiene invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: "
        + " ".join(DEFAULT_PATHS) + ", those that exist)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root findings are reported relative to "
        "(default: cwd)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run exclusively (per-file and "
        "project rules alike; unknown ids are a usage error)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(REGISTRY):
            cls = REGISTRY[rule_id]
            scope = getattr(cls, "scope", "file")
            print(f"{rule_id} [{scope}] ({cls.severity}): {cls.summary}")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"repro-lint: root {root} is not a directory", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [root / name for name in DEFAULT_PATHS if (root / name).is_dir()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        joined = ", ".join(str(p) for p in missing)
        print(f"repro-lint: no such path(s): {joined}", file=sys.stderr)
        return 2

    select = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        engine = Engine(root=root, select=select)
    except ValueError as exc:  # unknown rule ids
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    result = engine.run(paths)
    print(render_text(result))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
