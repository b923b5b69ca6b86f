"""The reach census's allowlist stays well-formed, checked without a run.

``python -m tests.reach`` (the CI ``reach`` job) runs the system to find
the functions no run reaches; this tier-1 check needs only ``ast``: every
line of ``tests/reach_allowlist.txt`` names a ``def`` that exists under
``src/repro``, gives a reason, and appears once.
"""

from collections import Counter

from tests.reach import definitions, read_allowlist


def test_every_listed_function_exists():
    defined = {definition.name for definition in definitions().values()}
    missing = [
        f"line {number}: {name}"
        for number, name, _reason in read_allowlist() if name not in defined
    ]
    assert missing == []


def test_every_line_gives_a_reason():
    bare = [f"line {number}: {name}"
            for number, name, reason in read_allowlist() if not reason]
    assert bare == []


def test_no_function_is_listed_twice():
    counts = Counter(name for _number, name, _reason in read_allowlist())
    assert [name for name, count in counts.items() if count > 1] == []
