"""Synthetic violation corpus: every rule fires at the asserted spot.

The corpus files under ``tests/lint/corpus/`` are never imported (the
directory is in the engine's default exclusions, so blanket scans skip
it); linting them with an explicit root exercises every rule end to
end, with exact rule ids, paths, and line numbers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Engine, SEVERITY_ERROR, SEVERITY_WARNING

CORPUS = Path(__file__).resolve().parent / "corpus"
REPO = Path(__file__).resolve().parents[2]

UPWARD = "layering_tree/src/repro/resolver/upward.py"
CLEAN = "layering_tree/src/repro/naming/clean.py"
TAINT_ONE_HOP = "taint_tree/src/repro/hostutil/stopwatch.py"
TAINT_TWO_HOP = "taint_tree/src/repro/dtncore/sched.py"
ROGUE = "isolation_tree/src/repro/nodesim/rogue.py"

#: (rule, path, line) for every finding the corpus must produce.
EXPECTED = {
    ("entropy-taint", "entropy_violations.py", line)
    for line in range(17, 27)
} | {
    ("no-unsorted-iteration", "iteration_violations.py", line)
    for line in (11, 14, 15, 16, 20, 27)
} | {
    ("no-silent-except", "hygiene_violations.py", line)
    for line in (11, 18)
} | {
    ("layering", UPWARD, line)
    for line in (7, 8, 9, 10, 11)
} | {
    ("entropy-taint", TAINT_ONE_HOP, 12),
    ("entropy-taint", TAINT_TWO_HOP, 13),
} | {
    ("node-isolation", ROGUE, line)
    for line in (16, 17, 18, 21, 22, 23)
} | {
    ("protocol-exhaustive", "protocol_tree/src/repro/message/wire.py", 16),
    ("protocol-exhaustive", "protocol_tree/src/repro/resolver/stats.py", 11),
}


@pytest.fixture(scope="module")
def corpus_result():
    return Engine(root=CORPUS).run([CORPUS])


def test_every_expected_finding_and_nothing_else(corpus_result):
    actual = {(f.rule, f.path, f.line) for f in corpus_result.findings}
    assert actual == EXPECTED


def test_undeclared_layer_is_the_only_warning(corpus_result):
    warnings = [
        f for f in corpus_result.findings
        if f.severity == SEVERITY_WARNING
    ]
    assert [(f.rule, f.path, f.line) for f in warnings] == [
        ("layering", UPWARD, 11)
    ]
    for finding in corpus_result.findings:
        if (finding.rule, finding.path, finding.line) != (
            "layering", UPWARD, 11
        ):
            assert finding.severity == SEVERITY_ERROR


def test_clean_bottom_layer_module_has_no_findings(corpus_result):
    assert not [f for f in corpus_result.findings if f.path == CLEAN]
    # ... and it was actually scanned, not skipped by the walker.
    discovered = [
        p.resolve().relative_to(CORPUS).as_posix()
        for p in Engine(root=CORPUS).discover([CORPUS])
    ]
    assert CLEAN in discovered


def test_corpus_fails_the_build(corpus_result):
    assert corpus_result.exit_code == 1


def test_per_file_rule_provably_misses_the_two_hop_wrapper():
    """The acceptance case for the call-graph half of ``entropy-taint``:
    the taint tree's wall-clock read is pragma-sanctioned at its source,
    so a per-file scan for entropy sources reports *nothing* — the one
    source report is the suppressed one — while the call-graph half pins
    both laundering call sites, including the two-hop wrapper in a
    different package."""
    tree = CORPUS / "taint_tree"
    taint = Engine(root=CORPUS, select=["entropy-taint"]).run([tree])
    assert [(f.rule, f.path, f.line) for f in taint.suppressed] == [
        ("entropy-taint", "taint_tree/src/repro/hostutil/clock.py", 16)
    ]
    flagged = {
        (f.path, f.line)
        for f in taint.findings if f.rule == "entropy-taint"
    }
    assert flagged == {(TAINT_ONE_HOP, 12), (TAINT_TWO_HOP, 13)}
    for finding in taint.findings:
        if finding.rule == "entropy-taint":
            assert "wall-clock" in finding.message


def test_taint_chain_names_the_laundering_path(corpus_result):
    (two_hop,) = [
        f for f in corpus_result.findings
        if f.rule == "entropy-taint" and f.path == TAINT_TWO_HOP
    ]
    for step in ("elapsed_since", "wall_seconds", "time.time()"):
        assert step in two_hop.message


def test_cli_reports_corpus_with_nonzero_exit():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--root", str(CORPUS), str(CORPUS)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    assert proc.returncode == 1, proc.stderr
    # one warning: the undeclared layer
    assert f"{len(EXPECTED) - 1} error(s), 1 warning(s)" in proc.stdout
    reported = set()
    for line in proc.stdout.splitlines():
        if ": error [" in line or ": warning [" in line:
            path, lineno, _ = line.split(":", 2)
            rule = line.split("[", 1)[1].split("]", 1)[0]
            reported.add((rule, path, int(lineno)))
    assert reported == EXPECTED
