"""``src/`` imports only the standard library and what ``pyproject.toml``
declares: ``pip install -e ".[test]"`` is all a fresh checkout gets, so
an import of anything else is a crash on the first machine that lacks
it.

Each top-level import is resolved with ``importlib.util.find_spec`` and
judged by where it lives (built in, frozen, or under the interpreter's
library directory outside ``site-packages``), which also works on
Python 3.9, where ``sys.stdlib_module_names`` does not exist.
"""

import ast
import importlib.util
import re
import sysconfig
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _top_level_imports():
    found = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.relative_to(REPO))
    return found


def _declared():
    """The ``[project]`` dependencies, as importable names."""
    text = (REPO / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    if listed is None:
        return set()
    return {
        re.split(r"[\s<>=!~;\[]", requirement, 1)[0].lower().replace("-", "_")
        for requirement in re.findall(r"[\"']([^\"']+)[\"']", listed.group(1))
    }


def _is_standard_library(name):
    spec = importlib.util.find_spec(name)
    if spec is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    location = Path(spec.origin or next(iter(spec.submodule_search_locations)))
    library = {
        Path(sysconfig.get_paths()[key]).resolve() for key in ("stdlib", "platstdlib")
    }
    resolved = location.resolve()
    return any(root in resolved.parents for root in library) and not {
        "site-packages",
        "dist-packages",
    } & set(resolved.parts)


def test_src_imports_only_the_standard_library_and_declared_dependencies():
    declared = _declared() | {"repro"}
    undeclared = {
        name: str(path)
        for name, path in _top_level_imports().items()
        if name not in declared and not _is_standard_library(name)
    }
    assert undeclared == {}
