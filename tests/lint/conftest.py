"""Shared helpers for the ``repro.lint`` test suite."""

import textwrap

import pytest

from repro.lint import Engine


@pytest.fixture
def lint():
    """Lint a source snippet with the per-file rules.

    Returns the findings list; pass ``path=`` to simulate a location
    (e.g. ``src/repro/resolver/x.py`` to exercise the layering rule).
    """

    def _lint(source, path="snippet.py"):
        return Engine().lint_text(textwrap.dedent(source), path=path)

    return _lint


@pytest.fixture
def rule_ids(lint):
    """Like ``lint`` but collapsed to the list of rule ids found."""

    def _rule_ids(source, path="snippet.py"):
        return [f.rule for f in lint(source, path=path)]

    return _rule_ids
