"""Figure 15 — per-INR time to route a 100-packet burst.

Paper (586-byte Camera messages, ~82-byte names): local destination
grows 3.1 -> 19 ms/packet as the vspace grows 250 -> 5000 names (mostly
a delivery-code artifact, reproduced deliberately); remote same-vspace
stays flat near 9.8 ms/packet; a different vspace costs a near-constant
381 ms per burst (one DSR query, then cached forwarding).
"""

import os

import pytest

from _report import RESULTS_DIR, record_table

from repro.experiments.fig15 import (
    run_observed_routing,
    run_routing_experiment,
    write_bench_routing_json,
)
from repro.obs import well_formed_traces


def test_fig15_routing_burst(benchmark):
    rows = benchmark.pedantic(
        lambda: run_routing_experiment(name_counts=(250, 1000, 2500, 5000)),
        rounds=1,
        iterations=1,
    )
    # Traced rerun of the remote-same-vspace burst: every packet must
    # produce a complete root -> forwarded-at-inr-a -> delivered-at-inr-b
    # span chain.
    burst_ms, collector = run_observed_routing(names=250)
    assert well_formed_traces(collector.tracer.spans) == {}
    hops = [s for s in collector.tracer.spans if s.name == "inr.hop"]
    assert sum(1 for s in hops if s.status == "forwarded") == 100
    assert sum(1 for s in hops if s.status == "delivered") == 100
    write_bench_routing_json(
        os.path.join(RESULTS_DIR, "BENCH_routing.json"),
        rows,
        observed_burst_ms=burst_ms,
        collector=collector,
    )
    record_table(
        "Figure 15: time to route 100 packets (ms per burst)",
        ["names in vspace", "local", "remote same vspace",
         "remote different vspace"],
        [
            (
                row.names_in_vspace,
                f"{row.local_ms:.0f}",
                f"{row.remote_same_vspace_ms:.0f}",
                f"{row.remote_other_vspace_ms:.0f}",
            )
            for row in rows
        ],
    )
    by_names = {row.names_in_vspace: row for row in rows}
    assert by_names[250].local_ms / 100 == pytest.approx(3.1, rel=0.15)
    assert by_names[5000].local_ms / 100 == pytest.approx(19.0, rel=0.15)
    assert by_names[5000].remote_same_vspace_ms == pytest.approx(
        by_names[250].remote_same_vspace_ms, rel=0.05
    )
    assert by_names[250].remote_same_vspace_ms / 100 == pytest.approx(9.8, rel=0.1)
    for row in rows:
        assert row.remote_other_vspace_ms == pytest.approx(381, rel=0.1)
