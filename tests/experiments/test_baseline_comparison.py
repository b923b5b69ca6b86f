"""Tests for the INS-vs-DNS mobility comparison experiment."""

import math

import pytest

from repro.xp import default_suite, run_spec


@pytest.fixture(scope="module")
def rows():
    return run_spec(default_suite()["dns-mobility"]).baseline.details["rows"]


class TestMobilityComparison:
    def test_three_systems_compared(self, rows):
        assert [row.system.split(" ")[0] for row in rows] == ["INS", "DNS", "DNS"]

    def test_ins_is_essentially_lossless(self, rows):
        ins = rows[0]
        assert ins.delivered >= ins.requests_sent - 2
        assert ins.outage_seconds < 2.0

    def test_dns_with_fix_suffers_ttl_outage(self, rows):
        fixed = rows[1]
        assert fixed.delivered < fixed.requests_sent
        assert fixed.delivered <= rows[0].delivered - 50
        # outage is bounded by the record TTL (60 s) but substantial
        assert 10.0 < fixed.outage_seconds <= 65.0

    def test_stale_dns_never_recovers(self, rows):
        stale = rows[2]
        assert math.isinf(stale.outage_seconds)
        # it delivered only the pre-move traffic
        assert stale.delivered < rows[0].delivered / 2

    def test_identical_workloads(self, rows):
        sent = {row.requests_sent for row in rows}
        assert len(sent) == 1
