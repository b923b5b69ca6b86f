"""Every shipped example must run to completion.

Examples are documentation that executes; a broken example is a broken
README. Each is run in-process via runpy for speed.
"""

import os
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "printer_pool.py",
    "camera_network.py",
    "floorplan_tour.py",
    "mobility_handoff.py",
    "vspace_partitioning.py",
    "load_balancing.py",
    "reliable_updates.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, script))
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} produced no output"


def test_quickstart_shows_all_services(capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, "quickstart.py"))
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "early binding:" in output
    assert "discovered names:" in output
    assert "[service=printer[entity=spooler][id=lw1]][room=517]" in output


def test_mobility_handoff_never_loses_the_service(capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, "mobility_handoff.py"))
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "NOBODY" not in output


def test_module_demo_runs(capsys):
    """`python -m repro` — the guided demo — must run to completion."""
    import repro.__main__ as demo

    demo.main()
    output = capsys.readouterr().out
    assert "self-configured" in output
    assert "operator view" in output
    assert "name-tree vspace='default'" in output


def test_readme_quickstart_executes(capsys):
    """The README's quickstart code block must run verbatim."""
    import re

    readme_path = os.path.abspath(
        os.path.join(EXAMPLES_DIR, "..", "README.md")
    )
    readme = open(readme_path).read()
    block = re.search(r"## Quickstart\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README lost its quickstart block"
    exec(block.group(1), {})
    output = capsys.readouterr().out
    assert "udp://" in output  # the early-binding loop printed endpoints
