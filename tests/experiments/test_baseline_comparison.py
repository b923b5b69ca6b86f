"""The INS-vs-DNS mobility comparison, judged on the committed
``dns-mobility`` entry of BENCH_matrix.json and its table, which CI's
byte gate regenerates from the spec."""

import pytest

from ..xp.test_committed_artifacts import committed_table, suite_entry

#: The dns-mobility metrics' suffixes, in its table's row order.
SYSTEMS = ("ins", "dns_fixed", "dns_stale")


@pytest.fixture(scope="module")
def metrics():
    return suite_entry("dns-mobility")["baseline"]["metrics"]


@pytest.fixture(scope="module")
def table():
    return committed_table(
        "baseline__node_mobility_at_t_20s__one_request_per_0_5s_for_120s.txt"
    )


def per_system(metrics, field):
    return {system: metrics[f"{field}_{system}"] for system in SYSTEMS}


class TestMobilityComparison:
    def test_three_systems_compared(self, metrics, table):
        assert [row[0].split(" ")[0] for row in table] == ["INS", "DNS", "DNS"]
        sent = per_system(metrics, "requests_sent")
        delivered = per_system(metrics, "delivered")
        assert [row[1:3] for row in table] == [
            [f"{sent[s]:.0f}", f"{delivered[s]:.0f}"] for s in SYSTEMS
        ]

    def test_ins_is_essentially_lossless(self, metrics):
        assert metrics["delivered_ins"] >= metrics["requests_sent_ins"] - 2
        assert metrics["outage_s_ins"] < 2.0

    def test_dns_with_fix_suffers_ttl_outage(self, metrics):
        assert metrics["delivered_dns_fixed"] < metrics["requests_sent_dns_fixed"]
        assert metrics["delivered_dns_fixed"] <= metrics["delivered_ins"] - 50
        # outage is bounded by the record TTL (60 s) but substantial
        assert 10.0 < metrics["outage_s_dns_fixed"] <= 65.0

    def test_stale_dns_never_recovers(self, metrics, table):
        assert table[2][3] == "never recovers"
        # it delivered only the pre-move traffic
        assert metrics["delivered_dns_stale"] < metrics["delivered_ins"] / 2

    def test_identical_workloads(self, metrics):
        assert len(set(per_system(metrics, "requests_sent").values())) == 1
