"""Every ``InrConfig`` field is a knob somebody turns: some file under
``src/``, ``benchmarks/`` or ``examples/`` passes it by keyword to
``InrConfig(...)`` or ``replace(config, ...)``. A field only tests set
is a constant beside its one reader, not configuration."""

import ast
from dataclasses import fields
from pathlib import Path

from repro.resolver import InrConfig

REPO = Path(__file__).resolve().parents[2]


def _keywords_passed():
    for root in ("src", "benchmarks", "examples"):
        for path in (REPO / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = getattr(func, "id", getattr(func, "attr", None))
                    if callee in ("InrConfig", "replace"):
                        yield from (keyword.arg for keyword in node.keywords)


def test_every_config_field_is_set_by_a_caller_outside_the_tests():
    unset = {f.name for f in fields(InrConfig)} - set(_keywords_passed())
    assert unset == set()
