"""Ablation — the INR packet-caching extension (Section 3.2).

Engine-driven: the ``packet-cache`` workload runs the baseline and the
cache-off arm from the committed suite's own spec, so this driver
shares its run IDs (and its numbers) with the ``BENCH_matrix.json``
entry of the same name. Repeated cacheable Camera requests should be answered by INR
caches; the origin camera serves the first request and the caches
absorb the rest — with the cache ablated, every request reaches the
origin.
"""

from _report import record_table

from repro.xp import WORKLOADS, default_suite, run_spec

SPEC = default_suite()["packet-cache-camera"]


def test_ablation_packet_cache(benchmark):
    run = benchmark.pedantic(
        lambda: run_spec(SPEC, timing=False), rounds=1, iterations=1
    )
    for title, headers, rows in WORKLOADS["packet-cache"].suite_tables(run):
        record_table(title, headers, rows)
    result = run.baseline.details["result"]
    assert result.origin_served <= 2
    assert result.cache_answers >= result.requests - 2
    # The ablated arm: with the cache off, nothing shields the origin.
    ablated = run.ablations["packet_cache"].details["result"]
    assert ablated.cache_answers == 0
    assert ablated.origin_served == ablated.requests
