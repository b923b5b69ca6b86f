"""A default-suite spec's committed metrics carry what JSON cannot: the
DNS baseline's "never recovers", read from the committed
``dns-mobility`` entry of BENCH_matrix.json."""

import math

from .test_committed_artifacts import suite_entry


def test_dns_never_recovering_is_a_metric_not_an_infinity():
    entry = suite_entry("dns-mobility")
    assert entry["toggles"] == {} and entry["ablations"] == {}
    metrics = entry["baseline"]["metrics"]
    # "Never" is a 0 in ``recovered_*`` and no ``outage_s_*``.
    assert metrics["recovered_dns_stale"] == 0.0
    assert "outage_s_dns_stale" not in metrics
    assert metrics["recovered_ins"] == 1.0
    assert all(math.isfinite(value) for value in metrics.values())
