"""Availability smoke: the acceptance scenario for request resilience.

Tiny-scale version of the availability chaos benchmark: steady client
lookup traffic through one seeded fault plan (INR crash+restart, a mesh
partition, lossy links, CPU overload), once with the resilience layer
on and once off. The resilient run must achieve a strictly higher
success rate, leave zero Reply objects permanently hanging, fold into
the ``BENCH_availability.json`` payload, and be bit-reproducible from
its seed.
"""

import math
import time

from repro.chaos import (
    bench_availability_payload,
    fingerprint,
    run_availability_scenario,
)

SCALE = dict(seed=7, duration=20.0)


def test_availability_scenario_resilience_and_reproducibility():
    started = time.perf_counter()
    resilient = run_availability_scenario(resilience=True, **SCALE)
    bare = run_availability_scenario(resilience=False, **SCALE)

    # Chaos actually happened, over the full fault vocabulary.
    assert resilient.faults_applied >= 5
    for kind in ("crash-inr", "restart-inr", "partition", "link-faults",
                 "cpu-degrade"):
        assert kind in resilient.fault_kinds

    # Both runs saw the same traffic and the same faults.
    assert resilient.requests_attempted == bare.requests_attempted > 0
    assert resilient.fault_kinds == bare.fault_kinds

    # The acceptance bar: resilience strictly raises the success rate...
    assert resilient.success_rate > bare.success_rate
    assert resilient.success_rate >= 0.75
    # ...the retry machinery actually ran...
    assert resilient.retries > 0
    assert resilient.failovers > 0
    # ...and no Reply was left permanently pending, while the
    # fire-and-forget baseline hangs under loss (the bug being fixed).
    assert resilient.requests_hung == 0
    assert bare.requests_hung > 0
    assert bare.retries == bare.failovers == 0

    # Latency percentiles are well-formed: the resilient tail is longer
    # because retried requests succeed late instead of never.
    assert math.isfinite(resilient.latency_p99)
    assert resilient.latency_p99 >= resilient.latency_p50 > 0

    # Every recovery the tracker watched completed in finite time.
    for kind, stats in resilient.mttr.items():
        assert stats["unrecovered"] == 0.0, kind
        assert math.isfinite(stats["p100"]), kind

    # The artifact's payload carries the comparison.
    payload = bench_availability_payload(resilient, bare)
    assert payload["benchmark"] == "availability-chaos"
    assert payload["resilience_on"]["success_rate"] >= 0.75
    assert payload["resilience_on"]["requests_hung"] == 0
    assert payload["success_rate_delta"] > 0

    # Same seed, same run — determinism extends to the new scenario.
    replay = run_availability_scenario(resilience=True, **SCALE)
    assert fingerprint(replay) == fingerprint(resilient)

    # Smoke budget: all three runs well under five wall-clock seconds.
    assert time.perf_counter() - started < 5.0
