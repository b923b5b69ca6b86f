"""Every knob is one somebody turns.

A field of ``InrConfig`` or ``RetryPolicy`` is configuration only if
some file under ``src/``, ``benchmarks/`` or ``examples/`` sets it to a
value other than its default — by keyword to the constructor or to
``replace(config, ...)``. A field only tests set is a constant beside
its one reader, which a test patches.

A defaulted parameter of a scenario driver stays only if some caller
passes it a value other than its default, or a ``default_suite()`` spec
whose adapter forwards its params does. Here tests count as callers:
the run sizes and sweeps they vary are what the parameters are for.

A value the code computes counts as a second value; a literal counts
only when it differs from the default.
"""

import ast
import inspect
from dataclasses import MISSING, fields
from pathlib import Path

from repro.chaos import (
    FaultPlan,
    run_availability_scenario,
    run_chaos_scenario,
    run_delegation_matrix,
    run_delegation_scenario,
    run_dtn_scenario,
)
from repro.client import RetryPolicy
from repro.experiments import InsDomain
from repro.experiments.fig14 import build_chain_domain
from repro.resolver import InrConfig
from repro.xp import default_suite

REPO = Path(__file__).resolve().parents[2]

#: The scenario drivers, by the dotted name a call site spells.
HARNESS = {
    "run_availability_scenario": run_availability_scenario,
    "run_dtn_scenario": run_dtn_scenario,
    "run_delegation_scenario": run_delegation_scenario,
    "run_delegation_matrix": run_delegation_matrix,
    "run_chaos_scenario": run_chaos_scenario,
    "FaultPlan.random": FaultPlan.random,
    "FaultPlan.duty_cycle": FaultPlan.duty_cycle,
    "build_chain_domain": build_chain_domain,
    "InsDomain": InsDomain,
}

#: The workloads whose adapter hands a spec's params to a driver as
#: they are.
FORWARDED = {
    "availability": "run_availability_scenario",
    "dtn": "run_dtn_scenario",
    "delegation": "run_delegation_scenario",
    "delegation-matrix": "run_delegation_matrix",
}


def _dotted(func, enclosing_class):
    if isinstance(func, ast.Name):
        return enclosing_class if func.id == "cls" else func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = func.value.id
        if owner == "cls":
            owner = enclosing_class
        return f"{owner}.{func.attr}"
    return None


def _module_dicts(tree):
    """Module-level ``NAME = dict(...)`` / ``{...}`` keyword sets, so a
    call spelled ``f(**NAME)`` is read with NAME's keywords."""
    found = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict":
            found[target.id] = [(k.arg, k.value) for k in value.keywords if k.arg]
        elif isinstance(value, ast.Dict) and all(
            isinstance(key, ast.Constant) for key in value.keys
        ):
            found[target.id] = [
                (key.value, item) for key, item in zip(value.keys, value.values)
            ]
    return found


def _calls(roots):
    """(dotted callee, positional args, [(keyword, value node)]) for
    every call under ``roots``; ``cls(...)`` inside a class body is a
    call of that class."""
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            dicts = _module_dicts(tree)

            def visit(node, enclosing_class):
                if isinstance(node, ast.ClassDef):
                    enclosing_class = node.name
                if isinstance(node, ast.Call):
                    keywords = []
                    for keyword in node.keywords:
                        if keyword.arg is not None:
                            keywords.append((keyword.arg, keyword.value))
                        elif isinstance(keyword.value, ast.Name):
                            keywords.extend(dicts.get(keyword.value.id, ()))
                    callee = _dotted(node.func, enclosing_class)
                    if callee is not None:
                        yield callee, node.args, keywords
                for child in ast.iter_child_nodes(node):
                    yield from visit(child, enclosing_class)

            yield from visit(tree, None)


def _differs(value_node, default):
    try:
        value = ast.literal_eval(value_node)
    except ValueError:
        return True  # computed: not the default by construction
    return value != default


def _config_defaults(cls):
    return {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
    }


def _fields_set_outside_the_tests(cls):
    defaults = _config_defaults(cls)
    set_fields = set()
    for callee, _args, keywords in _calls(("src", "benchmarks", "examples")):
        if callee not in (cls.__name__, "replace"):
            continue
        for name, value in keywords:
            if name in defaults and _differs(value, defaults[name]):
                set_fields.add(name)
    return set(defaults) - set_fields


def test_every_config_field_is_set_by_a_caller_outside_the_tests():
    assert _fields_set_outside_the_tests(InrConfig) == set()


def test_every_retry_policy_field_is_set_by_a_caller_outside_the_tests():
    assert _fields_set_outside_the_tests(RetryPolicy) == set()


def _defaulted(function):
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


def test_every_driver_parameter_gets_a_second_value_from_some_caller():
    defaults = {name: _defaulted(function) for name, function in HARNESS.items()}
    varied = {name: set() for name in HARNESS}
    for callee, args, keywords in _calls(("src", "tests", "benchmarks", "examples")):
        if callee not in HARNESS:
            continue
        positional = list(inspect.signature(HARNESS[callee]).parameters)
        passed = list(zip(positional, args)) + keywords
        for name, value in passed:
            if name in defaults[callee] and _differs(value, defaults[callee][name]):
                varied[callee].add(name)
    for spec in default_suite().values():
        driver = FORWARDED.get(spec.workload)
        if driver is None:
            continue
        for name, value in spec.params.items():
            if value != defaults[driver].get(name, value):
                varied[driver].add(name)
    unvaried = {
        (callee, name)
        for callee, params in defaults.items()
        for name in params
        if name not in varied[callee]
    }
    assert unvaried == set()
