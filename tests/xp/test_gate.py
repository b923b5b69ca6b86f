"""The payload gate: flattening and rule semantics."""

import copy

from repro.xp import MetricRule, compare_artifacts, render_gate_report
from repro.xp.gate import EXACT_RULE, flatten


def matrix_payload() -> dict:
    """A minimal xp-matrix payload."""
    return {
        "benchmark": "xp-matrix",
        "schema_version": 1,
        "engine": {"toggles": {"packet_cache": "INR packet cache"}},
        "suite": [
            {
                "name": "cache",
                "workload": "packet-cache",
                "seed": 0,
                "run_id": "xp-0123456789abcdef",
                "params": {"requests": 10},
                "toggles": {"packet_cache": True},
                "baseline": {
                    "metrics": {"origin_served": 2.0, "requests": 10.0}
                },
                "ablations": {
                    "packet_cache": {
                        "run_id": "xp-fedcba9876543210",
                        "metrics": {"origin_served": 10.0, "requests": 10.0},
                        "deltas": {
                            "origin_served": {
                                "baseline": 2.0,
                                "ablated": 10.0,
                                "delta": 8.0,
                                "relative": 0.8,
                            }
                        },
                        "primary": {
                            "metric": "origin_served",
                            "direction": "lower",
                            "importance": 0.8,
                        },
                    }
                },
            }
        ],
        "importance_ranking": [
            {
                "component": "packet_cache",
                "importance": 0.8,
                "workload": "packet-cache",
                "spec": "cache",
                "metric": "origin_served",
                "direction": "lower",
                "baseline": 2.0,
                "ablated": 10.0,
            }
        ],
    }


class TestFlatten:
    def test_numeric_leaves_only_with_list_indices(self):
        flat = flatten(
            {
                "a": {"b": 1, "note": "text", "done": True},
                "rows": [{"x": 2.5}, {"x": 3.0}],
            }
        )
        assert flat == {"a.b": 1.0, "rows[0].x": 2.5, "rows[1].x": 3.0}


class TestRuleSemantics:
    def test_identical_payloads_pass_the_exact_gate(self):
        payload = matrix_payload()
        report = compare_artifacts(payload, copy.deepcopy(payload))
        assert report.ok
        assert not report.regressions
        assert all(r.status == "ok" for r in report.rows)

    def test_any_drift_fails_the_exact_gate(self):
        current = matrix_payload()
        current["suite"][0]["baseline"]["metrics"]["origin_served"] = 3.0
        report = compare_artifacts(current, matrix_payload())
        assert not report.ok
        paths = [r.path for r in report.regressions]
        assert "suite[0].baseline.metrics.origin_served" in paths

    def test_missing_gated_path_is_a_regression(self):
        current = matrix_payload()
        del current["suite"][0]["baseline"]["metrics"]["origin_served"]
        report = compare_artifacts(current, matrix_payload())
        assert not report.ok
        missing = [r for r in report.rows if r.status == "missing"]
        assert missing and missing[0].current is None

    def test_new_paths_are_reported_but_do_not_fail(self):
        current = matrix_payload()
        current["suite"][0]["baseline"]["metrics"]["extra"] = 1.0
        report = compare_artifacts(current, matrix_payload())
        assert report.ok
        assert [r.path for r in report.rows if r.status == "new"] == [
            "suite[0].baseline.metrics.extra"
        ]

    def test_higher_is_better_only_fails_on_harmful_drift(self):
        rule = MetricRule("rate", tolerance=0.1, direction="higher")
        worse = compare_artifacts({"rate": 0.5}, {"rate": 1.0}, rules=[rule])
        better = compare_artifacts({"rate": 2.0}, {"rate": 1.0}, rules=[rule])
        assert not worse.ok and worse.rows[0].status == "regressed"
        assert better.ok and better.rows[0].status == "improved"

    def test_lower_is_better_mirrors_higher(self):
        rule = MetricRule("latency", tolerance=0.1, direction="lower")
        worse = compare_artifacts({"latency": 2.0}, {"latency": 1.0}, rules=[rule])
        better = compare_artifacts({"latency": 0.5}, {"latency": 1.0}, rules=[rule])
        assert not worse.ok
        assert better.ok and better.rows[0].status == "improved"

    def test_tolerance_bounds_the_relative_change(self):
        rule = MetricRule("*", tolerance=0.25, direction="both")
        inside = compare_artifacts({"v": 110.0}, {"v": 100.0}, rules=[rule])
        outside = compare_artifacts({"v": 150.0}, {"v": 100.0}, rules=[rule])
        assert inside.ok
        assert not outside.ok

    def test_info_never_fails_even_when_missing(self):
        rule = MetricRule("*", direction="info")
        report = compare_artifacts({}, {"v": 1.0}, rules=[rule])
        assert report.ok
        assert all(r.status == "info" for r in report.rows)

    def test_bracketed_index_patterns_are_literal(self):
        # fnmatch alone would read [1] as a character class; list-index
        # paths must be addressable both exactly and with a wildcard.
        exact = MetricRule("curve[1].us", tolerance=0.5, direction="lower")
        current = {"curve": [{"us": 9.0}, {"us": 9.0}]}
        baseline = {"curve": [{"us": 1.0}, {"us": 1.0}]}
        report = compare_artifacts(
            current, baseline, rules=[exact],
            default_rule=MetricRule("*", direction="info"),
        )
        by_path = {r.path: r.status for r in report.rows}
        assert by_path["curve[1].us"] == "regressed"
        assert by_path["curve[0].us"] == "info"
        wild = MetricRule("curve[*].us", tolerance=0.0, direction="both")
        report = compare_artifacts(
            current, baseline, rules=[wild],
            default_rule=MetricRule("*", direction="info"),
        )
        assert all(r.status == "regressed" for r in report.rows)

    def test_first_matching_rule_wins(self):
        rules = [
            MetricRule("v", direction="info"),
            MetricRule("*", tolerance=0.0, direction="both"),
        ]
        report = compare_artifacts({"v": 9.0, "w": 9.0}, {"v": 1.0, "w": 1.0}, rules=rules)
        by_path = {r.path: r.status for r in report.rows}
        assert by_path == {"v": "info", "w": "regressed"}

    def test_default_rule_is_exact(self):
        report = compare_artifacts({"v": 2.0}, {"v": 1.0})
        assert not report.ok
        assert report.rows[0].rule == EXACT_RULE

    def test_render_mentions_verdict_and_offending_path(self):
        current = matrix_payload()
        current["suite"][0]["baseline"]["metrics"]["origin_served"] = 3.0
        report = compare_artifacts(current, matrix_payload())
        text = render_gate_report(report)
        assert "FAIL" in text
        assert "suite[0].baseline.metrics.origin_served" in text
        assert "PASS" in render_gate_report(
            compare_artifacts(matrix_payload(), matrix_payload())
        )
