"""Reach census: every function under ``src/repro`` is reached by a run,
or listed with a reason.

    python -m tests.reach

runs the run set below, each run in its own process with the profile
hook of ``tests/reach_hook/sitecustomize.py`` (which every Python
process the run spawns loads too), and matches the functions they
called against every ``def`` that ``ast`` finds under ``src/repro``.
``repro.lint`` is left out: its rules are reached by the lint run,
which is not a run of the system.

A function no run reaches must have a line in ``tests/reach_allowlist.txt``:
``path::Qualified.name  reason``, the path relative to ``src/repro``
and the name its classes and enclosing functions joined by dots. There
are no pattern exemptions. Exit 1 when an unreached function is not
listed, when a listed one is reached now, or when a line names no
function; exit 2 when a run fails.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
HOOK = Path(__file__).resolve().parent / "reach_hook"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
EXCLUDED = ("lint/",)

#: ``{tmp}`` stands for a scratch directory the census removes after.
#: ``benchmarks/perf_smoke.py`` is not here: it reaches nothing these
#: miss, and under the profiler its timing gate trips.
RUNS: Tuple[Tuple[str, ...], ...] = (
    ("-m", "repro.xp.cli", "run", "--timing", "--tables-dir", "{tmp}",
     "--out", "{tmp}/BENCH_matrix.json"),
    ("-m", "repro.xp.cli", "list"),
    ("-m", "repro"),
    *(("examples/" + path.name,)
      for path in sorted((REPO / "examples").glob("*.py"))),
    ("benchmarks/e2e/run.py", "--quick"),
)


class Definition(NamedTuple):
    name: str  # ``path::Qualified.name``
    lines: int  # body lines, decorators included


def definitions() -> Dict[Tuple[str, int], Definition]:
    """Every ``def`` under ``src/repro`` but ``repro.lint``, keyed by
    ``(path, first line)`` as a code object's ``co_firstlineno`` gives
    it: the first decorator's line for a decorated function."""
    found: Dict[Tuple[str, int], Definition] = {}

    def walk(node: ast.AST, path: str, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, scope + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualified = ".".join(scope + (child.name,))
                found[(path, first)] = Definition(
                    f"{path}::{qualified}", child.end_lineno - first + 1)
                walk(child, path, scope + (child.name,))
            else:
                walk(child, path, scope)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        if not path.startswith(EXCLUDED):
            walk(ast.parse(file.read_text(encoding="utf-8")), path, ())
    return found


def read_allowlist() -> List[Tuple[int, str, str]]:
    """``(line number, name, reason)`` for each entry; blank lines and
    lines starting with ``#`` are skipped."""
    entries = []
    lines = ALLOWLIST.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.strip().partition(" ")
            entries.append((number, name, reason.strip()))
    return entries


def reached_by_runs() -> Set[Tuple[str, int]]:
    """``(path, first line)`` of every function the run set called."""
    root = str(PACKAGE.resolve()) + os.sep
    reached: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        calls = Path(tmp) / "calls"
        calls.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK), str(REPO / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["REPRO_REACH_OUT"] = str(calls)
        env["REPRO_REACH_ROOT"] = root
        for run in RUNS:
            argv = [sys.executable] + [arg.format(tmp=tmp) for arg in run]
            started = time.monotonic()
            done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True,
                                  text=True, check=False)
            label = " ".join(run).replace("{tmp}", "<tmp>")
            print(f"reach: {time.monotonic() - started:6.1f} s  {label}", flush=True)
            if done.returncode != 0:
                print(done.stdout[-2000:] + done.stderr[-4000:], file=sys.stderr)
                raise RuntimeError(f"{label} exited {done.returncode}")
        for dump in sorted(calls.iterdir()):
            for line in dump.read_text(encoding="utf-8").splitlines():
                filename, first = line.split("\t")
                path = filename[len(root):].replace(os.sep, "/")
                reached.add((path, int(first)))
    return reached


def census(
    defined: Dict[Tuple[str, int], Definition],
    reached: Set[Tuple[str, int]],
    entries: List[Tuple[int, str, str]],
) -> Tuple[List[Definition], List[str]]:
    """``(unlisted, stale)``: the unreached functions no allowlist entry
    names, and the entries that name a reached function or none."""
    unreached = {d.name: d for key, d in defined.items() if key not in reached}
    names = {d.name for d in defined.values()}
    listed = {name for _number, name, _reason in entries}
    unlisted = [d for name, d in sorted(unreached.items()) if name not in listed]
    stale = [
        f"{ALLOWLIST.name}:{number}: {name} "
        + ("names no function" if name not in names else "is reached")
        for number, name, _reason in entries
        if name not in unreached
    ]
    return unlisted, stale


def main() -> int:
    try:
        reached = reached_by_runs()
    except RuntimeError as error:
        print(f"reach: a run failed: {error}", file=sys.stderr)
        return 2
    defined = definitions()
    hit = sum(1 for key in defined if key in reached)
    print(f"reach: {hit} of {len(defined)} functions reached by "
          f"{len(RUNS)} runs")
    unlisted, stale = census(defined, reached, read_allowlist())
    for definition in unlisted:
        print(f"unreached and not listed: {definition.name} "
              f"({definition.lines} lines)")
    for line in stale:
        print(f"stale: {line}")
    if unlisted or stale:
        print(f"reach: FAIL — {len(unlisted)} unlisted, {len(stale)} stale")
        return 1
    print("reach: OK — every unreached function is listed with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
