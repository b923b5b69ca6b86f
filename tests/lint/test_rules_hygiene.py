"""Per-rule unit tests for the hygiene rule (no-silent-except)."""


class TestSilentExcept:
    RULE = "no-silent-except"

    def test_bare_except_flagged(self, lint):
        found = [
            f for f in lint("try:\n    x = 1\nexcept:\n    x = 2\n")
            if f.rule == self.RULE
        ]
        assert len(found) == 1
        assert "bare except" in found[0].message

    def test_swallowing_handler_flagged(self, lint):
        found = [
            f for f in lint(
                "try:\n    x = 1\nexcept ValueError:\n    pass\n"
            )
            if f.rule == self.RULE
        ]
        assert len(found) == 1
        assert "swallows" in found[0].message

    def test_continue_body_flagged(self, rule_ids):
        assert self.RULE in rule_ids(
            "for i in [1]:\n"
            "    try:\n"
            "        x = i\n"
            "    except ValueError:\n"
            "        continue\n"
        )

    def test_handler_that_records_allowed(self, rule_ids):
        assert self.RULE not in rule_ids(
            "def f(stats):\n"
            "    try:\n"
            "        x = 1\n"
            "    except ValueError:\n"
            "        stats.errors += 1\n"
        )

    def test_handler_that_reraises_allowed(self, rule_ids):
        assert self.RULE not in rule_ids(
            "try:\n    x = 1\nexcept ValueError:\n    raise\n"
        )
