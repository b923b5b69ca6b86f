"""The one derived ``fingerprint``: every declared field of every chaos
report class moves it, so the determinism checks are blind to nothing."""

import dataclasses

import pytest

from repro.chaos import ChaosReport, Violation
from repro.xp.experiments.availability import AvailabilityReport
from repro.xp.experiments.delegation import DelegationReport
from repro.xp.experiments.dtn import DtnReport

from ..conftest import fingerprint

#: One instance per report class, every field filled with a plausible
#: value of its declared shape.
REPORTS = [
    ChaosReport(
        seed=1,
        faults_applied=4,
        fault_kinds=("crash-inr", "link-down"),
        violations=[Violation(time=1.5, invariant="no-loops", detail="a->b->a")],
        converged_violations=[],
        invariant_samples=30,
        mttr={"crash-inr": {"p50": 1.25, "p100": 2.5}},
        final_active=("inr-1", "inr-2"),
        final_name_counts=(("inr-1", 4), ("inr-2", 4)),
        control_bytes=12345,
        sim_time=40.0,
    ),
    AvailabilityReport(
        seed=1,
        resilience=True,
        requests_attempted=100,
        requests_succeeded=90,
        requests_empty=4,
        requests_failed=5,
        requests_hung=1,
        success_rate=0.9,
        latency_p50=0.01,
        latency_p99=0.5,
        retries=12,
        failovers=2,
        deadline_exceeded=3,
        faults_applied=9,
        fault_kinds=("crash-inr", "partition"),
        mttr={"crash-inr": {"p50": 1.0, "unrecovered": 0.0}},
        sim_time=41.0,
    ),
    DtnReport(
        seed=1,
        custody=True,
        disruption=30.0,
        messages_sent=100,
        messages_delivered=95,
        delivery_ratio=0.95,
        latency_p50=0.02,
        latency_p99=29.0,
        latency_max=31.0,
        custody_accepted=60,
        custody_released=58,
        drops_custody_expired=1,
        drops_custody_evicted=1,
        drops_no_route=3,
        converged_violations=(),
        faults_applied=6,
        fault_kinds=("link-down", "partition"),
        sim_time=70.0,
    ),
    DelegationReport(
        seed=1,
        two_phase=True,
        crash_role="recipient",
        crash_phase="transfer",
        handoff_started_at=3.0,
        crash_at=3.1,
        restarted_at=4.6,
        delegations_started=2,
        delegations_committed=1,
        delegations_aborted=1,
        delegations_adopted=1,
        delegation_rollbacks=0,
        delegate_records_sent=48,
        delegate_records_received=40,
        delegate_stale_dropped=2,
        requests_attempted=200,
        requests_succeeded=198,
        success_rate=0.99,
        window_requests=60,
        window_succeeded=59,
        window_success_rate=0.983,
        lost_records=0,
        authority=("spare-1",),
        always_violations=(),
        converged_violations=(),
        invariant_samples=50,
        sim_time=30.0,
    ),
]


def _changed(value):
    """A value of the same shape that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str) or value is None:
        return f"{value}-changed"
    if isinstance(value, dict):
        return {**value, "extra-kind": {"p50": 9.0}}
    if isinstance(value, list):
        return value + [Violation(time=9.0, invariant="late", detail="x")]
    if isinstance(value, tuple):
        return value + (value[0] if value else "extra",)
    raise AssertionError(f"no variant for {value!r}")


CASES = [
    pytest.param(report, field.name, id=f"{type(report).__name__}.{field.name}")
    for report in REPORTS
    for field in dataclasses.fields(report)
]


@pytest.mark.parametrize("report, name", CASES)
def test_changing_any_single_field_changes_the_fingerprint(report, name):
    other = dataclasses.replace(report, **{name: _changed(getattr(report, name))})
    assert fingerprint(other) != fingerprint(report)


def test_fingerprint_is_insensitive_to_noise_and_mapping_order():
    report = REPORTS[1]
    noisy = dataclasses.replace(
        report,
        latency_p50=report.latency_p50 + 1e-9,
        mttr={"crash-inr": {"unrecovered": 0.0, "p50": 1.0}},
    )
    assert fingerprint(noisy) == fingerprint(report)
    assert fingerprint(report) == fingerprint(dataclasses.replace(report))


def test_collector_rides_outside_the_fingerprint():
    """Only declared fields count: an attribute set on a report (a
    run's collector, say) does not move its fingerprint."""
    report = dataclasses.replace(REPORTS[2])
    report.collector = object()
    assert fingerprint(report) == fingerprint(REPORTS[2])
