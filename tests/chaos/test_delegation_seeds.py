"""The delegation scenario as a seed sweep: twelve seeds of the
``delegation`` workload's recipient crash with no operator restart, at
reduced scale. Two-phase is killed mid-TRANSFER, single-shot (the
``delegation_two_phase`` arm) right after its one unacknowledged batch.
What the two-phase handoff promises must hold on every seed: the crash
fires, no record is lost, exactly one resolver ends up authoritative,
no invariant breaks and the handoff window keeps serving; single-shot
loses records and orphans the vspace every time; and a seed reproduces
itself."""

import pytest

from repro.xp import ExperimentSpec, run_spec

from ..conftest import arm_fingerprints

#: The spec's crash at 20 bulk records instead of 24 and 7 s of traffic
#: instead of 14, which keeps the runs near three seconds. At 16
#: records the crash never fires; under 7 s of traffic the lookups stop
#: before the handoff window closes.
SCALE = {"n_bulk": 20, "traffic": 7.0}


@pytest.mark.parametrize("seed", range(1, 13))
def test_two_phase_survives_a_recipient_crash_across_seeds(seed):
    spec = ExperimentSpec(
        name="delegation-sweep", workload="delegation", seed=seed, params=SCALE
    )
    run = run_spec(spec)
    two_phase = run.baseline.details["report"]
    assert two_phase.crash_at > 0.0
    assert two_phase.lost_records == 0
    assert len(two_phase.authority) == 1
    assert two_phase.always_violations == () == two_phase.converged_violations
    assert two_phase.window_success_rate >= 0.95

    single_shot = run.ablations["delegation_two_phase"].details["report"]
    assert single_shot.lost_records > 0
    assert "single-vspace-authority" in single_shot.converged_violations

    assert arm_fingerprints(run_spec(spec)) == arm_fingerprints(run)
