"""Ablation — the Section 2.5 load-balancing machinery end to end.

Engine-driven: the ``spawn-overload`` and ``update-overload`` workloads
run baseline vs ``load_balancing``-ablated arms from the same specs the
committed ``BENCH_matrix.json`` uses. Spawn: a lookup-overloaded INR
claims a candidate and a helper appears while the load flows, then
retires when idle. Delegate: an update-overloaded INR hands a whole
virtual space (names included) to a fresh INR and the space stays
resolvable through vspace forwarding. With the policy ablated, the
overloaded resolver just stays overloaded.
"""

from _report import record_table

from repro.xp import WORKLOADS, default_suite, run_spec

SPAWN_SPEC = default_suite()["spawn-overload"]
UPDATE_SPEC = default_suite()["update-overload"]


def test_ablation_spawn(benchmark):
    run = benchmark.pedantic(
        lambda: run_spec(SPAWN_SPEC, timing=False), rounds=1, iterations=1
    )
    for title, headers, rows in WORKLOADS["spawn-overload"].suite_tables(run):
        record_table(title, headers, rows)
    result = run.baseline.details["result"]
    assert result.inrs_before == 1
    assert result.inrs_during_load >= 2
    assert result.inrs_after == 1  # helpers retire when idle
    # The overloaded resolver was saturated, and client re-selection
    # moved the load off it for at least part of the late window (one
    # client oscillates between resolvers rather than splitting).
    assert result.main_peak_utilization > 0.9
    assert result.main_min_utilization_late < (
        result.main_peak_utilization / 2
    )
    # Ablated: with the policy off no helper ever appears and the main
    # resolver never gets relief.
    off = run.ablations["load_balancing"].details["result"]
    assert not off.spawned_addresses
    assert off.inrs_during_load == 1


def test_ablation_delegation(benchmark):
    run = benchmark.pedantic(
        lambda: run_spec(UPDATE_SPEC, timing=False), rounds=1, iterations=1
    )
    for title, headers, rows in WORKLOADS["update-overload"].suite_tables(run):
        record_table(title, headers, rows)
    result = run.baseline.details["result"]
    assert len(result.vspaces_after) < len(result.vspaces_before)
    assert result.delegate_resolvers
    assert result.still_resolvable
    # Ablated: the overloaded resolver keeps every vspace.
    off = run.ablations["load_balancing"].details["result"]
    assert len(off.vspaces_after) == len(off.vspaces_before)
    assert not off.delegate_resolvers
