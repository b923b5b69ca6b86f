"""Chaos smoke: the acceptance scenario for the chaos harness.

Crash 30% of the resolvers (with restarts), flap 20% of the overlay
links, inject duplication/reordering and fail the DSR over to a warm
replica — every invariant must hold throughout, the overlay must
reconverge to a single spanning tree, every fault must report a finite
recovery time, and the whole run must be bit-reproducible from its
seed. Uses the scaled-down soft-state clocks so the suite stays fast.
"""

import math
import time

from repro.chaos import run_chaos_scenario

from ..conftest import fingerprint


def test_chaos_scenario_invariants_recovery_and_reproducibility():
    started = time.perf_counter()
    first = run_chaos_scenario(
        seed=42,
        n_inrs=6,
        n_services=4,
        chaos_duration=30.0,
    )

    # Chaos actually happened: crashes, restarts, flaps and a failover.
    assert first.faults_applied >= 5
    for kind in ("crash-inr", "restart-inr", "link-down", "dsr-failover"):
        assert kind in first.fault_kinds

    # Invariants held at every sample during the faults...
    assert first.invariant_samples > 0
    assert first.violations == []
    # ...and the converged properties hold after the bound: one spanning
    # tree, consistent name-trees.
    assert first.converged_violations == []

    # Every resolver is back: all six active, all holding all names.
    assert len(first.final_active) == 6
    assert all(count == 4 for _address, count in first.final_name_counts)

    # Every fault of every kind recovered in finite virtual time.
    assert first.mttr
    for kind, stats in first.mttr.items():
        assert stats["unrecovered"] == 0.0, kind
        assert math.isfinite(stats["p100"]), kind

    # Same seed, same run — the harness's core guarantee.
    second = run_chaos_scenario(
        seed=42,
        n_inrs=6,
        n_services=4,
        chaos_duration=30.0,
    )
    assert fingerprint(first) == fingerprint(second)

    # Smoke budget: both runs well under five wall-clock seconds.
    assert time.perf_counter() - started < 5.0
