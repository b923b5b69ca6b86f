"""Engine-level behavior: pragmas, the reporter, parse errors, select."""

import pytest

from repro.lint import (
    BAD_PRAGMA,
    Engine,
    PARSE_ERROR,
    SEVERITY_WARNING,
    USELESS_PRAGMA,
    render_text,
)

VIOLATION = "try:\n    x = 1\nexcept ValueError:\n    pass\n"


class TestPragmas:
    def test_justified_pragma_suppresses(self, lint):
        findings = lint(
            "for x in {1, 2}:  "
            "# lint: disable=no-unsorted-iteration -- printing order is moot\n"
            "    print(x)\n"
        )
        assert findings == []

    def test_unjustified_pragma_keeps_finding_and_reports_pragma(self, lint):
        findings = lint(
            "for x in {1, 2}:  # lint: disable=no-unsorted-iteration\n"
            "    print(x)\n"
        )
        rules = sorted(f.rule for f in findings)
        assert rules == [BAD_PRAGMA, "no-unsorted-iteration"]

    def test_comment_line_pragma_covers_next_line(self, lint):
        findings = lint(
            "# lint: disable=no-unsorted-iteration -- exercising the pragma\n"
            "for x in {1, 2}:\n"
            "    print(x)\n"
        )
        assert findings == []

    def test_pragma_for_other_rule_does_not_suppress(self, lint):
        findings = lint(
            "for x in {1, 2}:  "
            "# lint: disable=no-silent-except -- wrong rule on purpose\n"
            "    print(x)\n"
        )
        rules = sorted(f.rule for f in findings)
        assert rules == ["no-unsorted-iteration", USELESS_PRAGMA]

    def test_useless_pragma_is_warning(self, lint):
        findings = lint(
            "x = 1  # lint: disable=no-unsorted-iteration -- nothing here\n"
        )
        assert [f.rule for f in findings] == [USELESS_PRAGMA]
        assert findings[0].severity == SEVERITY_WARNING

    def test_pragma_inside_string_ignored(self, lint):
        findings = lint(
            's = "# lint: disable=no-unsorted-iteration -- not a pragma"\n'
        )
        assert findings == []

    def test_suppressed_findings_counted_in_run(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "x = random.randint(0, 5)  "
            "# lint: disable=entropy-taint -- deliberate\n"
        )
        result = Engine(root=tmp_path).run([target])
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.exit_code == 0


class TestReporters:
    def _result(self, tmp_path):
        (tmp_path / "mod.py").write_text(VIOLATION)
        return Engine(root=tmp_path).run([tmp_path])

    def test_text_report_mentions_location_and_rule(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "mod.py:3:" in text
        assert "[no-silent-except]" in text
        assert "1 error(s)" in text


class TestEngineEdges:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = Engine(root=tmp_path).run([tmp_path])
        assert [f.rule for f in result.findings] == [PARSE_ERROR]
        assert result.exit_code == 1

    def test_select_runs_only_the_named_rules(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import random\n"
            "x = random.randint(0, 5)\n" + VIOLATION
        )
        every = Engine(root=tmp_path).run([tmp_path])
        assert {f.rule for f in every.findings} == {
            "entropy-taint", "no-silent-except"
        }
        only = Engine(root=tmp_path, select=["no-silent-except"]).run(
            [tmp_path]
        )
        assert {f.rule for f in only.findings} == {"no-silent-except"}

    def test_unknown_rule_id_rejected(self):
        from repro.lint import create_rules

        with pytest.raises(ValueError):
            create_rules(select=["no-such-rule"])

    def test_discovery_skips_excluded_dirs(self, tmp_path):
        nested = tmp_path / "corpus"
        nested.mkdir()
        (nested / "bad.py").write_text(VIOLATION)
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = Engine(root=tmp_path).run([tmp_path])
        assert result.files_scanned == 1
        assert result.findings == []


TAINTED_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def jitter():\n"
    "    return time.time()  "
    "# lint: disable=entropy-taint -- host helper\n"
)

TAINTED_CALLER = (
    "from repro.util import jitter\n"
    "\n"
    "\n"
    "def backoff(base):\n"
    "    return base + jitter()  "
    "# lint: disable=entropy-taint -- sanctioned while util reads the host clock\n"
)


class TestWholeProgramEngine:
    """Pass-2 plumbing: validation, deferred pragmas."""

    def _tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "util.py").write_text(TAINTED_SOURCE)
        (pkg / "proto.py").write_text(TAINTED_CALLER)
        return tmp_path

    def test_engine_rejects_unknown_select(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            Engine(select=["entropy-taint", "no-such-rule"])
        # Project rule ids are valid too.
        Engine(select=["entropy-taint", "protocol-exhaustive"])

    def test_project_rules_recorded_on_result(self, tmp_path):
        root = self._tree(tmp_path)
        result = Engine(root=root).run([root])
        assert "entropy-taint" in result.project_rules
        assert "node-isolation" in result.project_rules
        assert "protocol-exhaustive" in result.project_rules
        only = Engine(root=root, select=["layering"]).run([root])
        assert only.project_rules == []

    def test_cross_file_pragma_suppresses_project_finding(self, tmp_path):
        root = self._tree(tmp_path)
        result = Engine(root=root).run([root])
        assert result.findings == []
        # The source report in util.py and the laundering call in proto.py.
        suppressed = sorted((f.rule, f.path) for f in result.suppressed)
        assert suppressed == [
            ("entropy-taint", "src/repro/proto.py"),
            ("entropy-taint", "src/repro/util.py"),
        ]

    def test_fixed_taint_path_turns_pragma_useless(self, tmp_path):
        """Fix the cross-file taint at its *source* and the caller's
        untouched pragma must surface as USELESS_PRAGMA — deferred pragma
        accounting working across files."""
        root = self._tree(tmp_path)
        (root / "src" / "repro" / "util.py").write_text(
            "def jitter():\n    return 0.0\n"
        )
        result = Engine(root=root).run([root])
        assert [
            (f.rule, f.path) for f in result.findings
        ] == [(USELESS_PRAGMA, "src/repro/proto.py")]
        assert result.findings[0].line == 5
        assert result.findings[0].severity == SEVERITY_WARNING
        assert result.exit_code == 0


class TestCli:
    def _main(self, argv, capsys):
        from repro.lint.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_list_rules_marks_project_scope(self, capsys):
        code, out, _ = self._main(["--list-rules"], capsys)
        assert code == 0
        assert "entropy-taint [project]" in out
        assert "layering [file]" in out

    def test_unknown_select_id_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        code, _, err = self._main(
            ["--root", str(tmp_path), "--select", "no-such-rule",
             str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "no-such-rule" in err

    def test_select_project_rule_runs_clean_tree(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        code, out, _ = self._main(
            ["--root", str(tmp_path), "--select", "entropy-taint",
             str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "1 files scanned: 0 error(s), 0 warning(s)" in out
