"""DTN smoke: the acceptance scenario for disruption tolerance.

Tiny-scale version of the DTN chaos benchmark: one client streams
anycast payloads at a service whose resolver suffers duty-cycled links
and then a partition outlasting every soft-state clock, once with the
custody store enabled and once with the paper's drop behavior. Custody
must strictly raise the delivery ratio, the post-heal invariants
(including custody-drained) must hold in both runs, every custodied
payload must stay attributable, the ``BENCH_dtn.json`` payload must
carry the fields the family reports, and the whole thing must be
bit-reproducible from its seed.
"""

import json

from repro.xp import ExperimentSpec, run_spec
from repro.xp.experiments.dtn import bench_dtn_payload

from ..conftest import arm_fingerprints

#: The ``dtn`` workload at smoke scale, untraced: baseline custody on,
#: the ``custody`` arm off.
SPEC = ExperimentSpec(
    name="dtn-scenario-smoke",
    workload="dtn",
    seed=7,
    toggles={"obs_tracing": False},
    params={"disruption": 8.0, "duty_window": 8.0},
    ablations=("custody",),
)


def test_dtn_scenario_delivery_and_reproducibility(tmp_path):
    run = run_spec(SPEC)
    on = run.baseline.details["report"]
    off = run.ablations["custody"].details["report"]

    # Chaos actually happened: duty cycles plus the partition/heal pair.
    assert on.faults_applied >= 4
    for kind in ("link-down", "link-up", "partition", "heal"):
        assert kind in on.fault_kinds

    # Both runs saw the same traffic and the same faults.
    assert on.messages_sent == off.messages_sent > 0
    assert on.fault_kinds == off.fault_kinds

    # The acceptance bar: custody strictly raises the delivery ratio...
    assert on.delivery_ratio > off.delivery_ratio
    assert on.delivery_ratio >= 0.7
    # ...the custody machinery actually ran...
    assert on.custody_accepted > 0
    assert on.custody_released > 0
    assert off.custody_accepted == 0
    # ...every payload taken into custody is accounted for: released,
    # lapsed, or evicted — nothing vanishes...
    assert on.custody_accepted == (
        on.custody_released
        + on.drops_custody_expired
        + on.drops_custody_evicted
    )
    # ...and after the heal plus the convergence bound, the post-heal
    # invariants — custody-drained among them — hold in both runs.
    assert on.converged_violations == ()
    assert off.converged_violations == ()

    # Payloads that waited out the partition dominate the latency tail;
    # the baseline only delivers what never had to wait.
    assert on.latency_max > off.latency_max

    # The satellite fix: the graced expiry readmitted the partitioned
    # service's post-heal refresh as a fast path, and it was counted.
    assert on.expiry_grace_readmissions > 0

    # Bit-reproducibility: same seed, same parameters, same run.
    assert arm_fingerprints(run_spec(SPEC)) == arm_fingerprints(run)


def test_bench_dtn_artifact_schema():
    # One traced ``dtn`` spec: baseline custody on, ``custody`` arm off.
    spec = ExperimentSpec(
        name="dtn-smoke",
        workload="dtn",
        seed=3,
        params={"disruption": 6.0, "duty_window": 6.0},
        ablations=("custody",),
    )
    # JSON rendering turns tuples into lists; normalize before checking.
    payload = json.loads(json.dumps(bench_dtn_payload([run_spec(spec)])))
    assert payload["benchmark"] == "dtn-chaos"
    assert payload["schema_version"] == 1
    (row,) = payload["rows"]
    assert row["delivery_ratio_delta"] > 0
    for key in ("custody_on", "custody_off"):
        report = row[key]
        assert report["messages_sent"] > 0
        assert report["converged_violations"] == []
        for field in (
            "delivery_ratio",
            "latency_p50",
            "custody_accepted",
            "drops_custody_expired",
            "drops_custody_evicted",
            "drops_custody_transfer_failed",
            "expiry_grace_readmissions",
        ):
            assert field in report
    # The observed run contributed span-backed drop attribution.
    assert "observability" in payload
    (observed,) = payload["observability"].values()
    assert observed
