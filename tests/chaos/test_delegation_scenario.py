"""Reduced-scale checks of the delegation-under-fire chaos scenario.

The benchmark runs the full crash matrix; these tests keep a
representative slice in tier-1 so a regression in the handoff protocol,
the invariants, or the scenario plumbing fails fast.
"""

from repro.xp import ExperimentSpec, run_spec
from repro.xp.experiments.delegation import run_delegation_scenario

from ..conftest import fingerprint

# Small enough to stay fast in tier-1, but with >= 3 transfer chunks
# (20 records / chunk size 8) so a mid-transfer crash has an observable
# mid-transfer to hit.
SCALE = dict(n_bulk=20, n_anchor=4, traffic=10.0)


def scenario(**crash):
    """One run of the scenario at ``SCALE``: its report."""
    return run_delegation_scenario(seed=3, **SCALE, **crash).details["report"]


class TestDelegationScenario:
    def test_fault_free_run_commits_exactly_one_handoff(self):
        report = scenario()
        assert report.delegations_started == 1
        assert report.delegations_committed == 1
        assert report.lost_records == 0
        assert len(report.authority) == 1
        assert report.always_violations == ()
        assert report.converged_violations == ()
        assert report.window_success_rate >= 0.95

    def test_recipient_crash_mid_transfer_self_heals(self):
        report = scenario(
            crash_role="recipient", crash_phase="transfer", restart_after=1.5
        )
        assert report.crash_at > 0.0
        assert report.lost_records == 0
        assert len(report.authority) == 1
        assert report.converged_violations == ()
        assert report.window_success_rate >= 0.95  # dual-serving window

    def test_donor_crash_at_await_commit_converges_to_one_authority(self):
        report = scenario(
            crash_role="donor", crash_phase="await-commit", restart_after=1.5
        )
        assert report.crash_at > 0.0
        assert report.lost_records == 0
        assert len(report.authority) == 1
        assert report.converged_violations == ()

    def test_same_seed_runs_fingerprint_identically(self):
        first = scenario(
            crash_role="recipient", crash_phase="transfer", restart_after=1.5
        )
        second = scenario(
            crash_role="recipient", crash_phase="transfer", restart_after=1.5
        )
        assert fingerprint(first) == fingerprint(second)

    def test_single_shot_ablation_loses_the_vspace(self):
        run = run_spec(ExperimentSpec(
            name="delegation-smoke", workload="delegation", seed=3, params=SCALE
        ))
        on = run.baseline.details["report"]
        off = run.ablations["delegation_two_phase"].details["report"]
        assert on.two_phase and not off.two_phase
        assert on.lost_records == 0
        assert on.converged_violations == ()
        assert off.lost_records > 0
        assert "single-vspace-authority" in off.converged_violations
