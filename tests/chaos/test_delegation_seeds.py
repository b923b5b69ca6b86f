"""The delegation scenario as a seed sweep: twelve seeds of the
``delegation`` spec's recipient crash with no operator restart, at
reduced scale. Two-phase is killed mid-TRANSFER, single-shot right
after its one unacknowledged batch. What the two-phase handoff promises
must hold on every seed: the crash fires, no record is lost, exactly
one resolver ends up authoritative, no invariant breaks and the handoff
window keeps serving; single-shot loses records and orphans the vspace
every time; and a seed reproduces itself."""

import pytest

from repro.chaos import fingerprint, run_delegation_scenario

#: The spec's crash at 20 bulk records instead of 24 and 7 s of traffic
#: instead of 14, which keeps the 36 runs near three seconds. At 16
#: records the crash never fires; under 7 s of traffic the lookups stop
#: before the handoff window closes.
SCALE = dict(crash_role="recipient", restart_after=None, n_bulk=20, traffic=7.0)


@pytest.mark.parametrize("seed", range(1, 13))
def test_two_phase_survives_a_recipient_crash_across_seeds(seed):
    two_phase = run_delegation_scenario(
        seed=seed, two_phase=True, crash_phase="transfer", **SCALE
    )
    assert two_phase.crash_at > 0.0
    assert two_phase.lost_records == 0
    assert len(two_phase.authority) == 1
    assert two_phase.always_violations == () == two_phase.converged_violations
    assert two_phase.window_success_rate >= 0.95

    single_shot = run_delegation_scenario(
        seed=seed, two_phase=False, crash_phase="post-transfer", **SCALE
    )
    assert single_shot.lost_records > 0
    assert "single-vspace-authority" in single_shot.converged_violations

    again = run_delegation_scenario(
        seed=seed, two_phase=True, crash_phase="transfer", **SCALE
    )
    assert fingerprint(again) == fingerprint(two_phase)
