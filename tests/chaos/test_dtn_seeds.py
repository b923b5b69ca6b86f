"""The DTN scenario as a seed sweep: twelve seeds at reduced scale, custody
on vs off. What the custody store promises must hold on every one of
them: it never delivers less than dropping at no route, every payload
it accepted is released, lapsed or evicted, the post-heal invariants
hold in both runs, and a seed reproduces itself."""

import pytest

from repro.chaos import fingerprint, run_dtn_scenario

SCALE = dict(disruption=8.0, duty_window=8.0)


@pytest.mark.parametrize("seed", range(1, 13))
def test_custody_holds_across_seeds(seed):
    on = run_dtn_scenario(seed=seed, custody=True, **SCALE)
    off = run_dtn_scenario(seed=seed, custody=False, **SCALE)
    assert on.messages_sent == off.messages_sent > 0
    assert on.delivery_ratio >= off.delivery_ratio
    assert on.custody_accepted == (
        on.custody_released + on.drops_custody_expired + on.drops_custody_evicted
    )
    assert on.converged_violations == () == off.converged_violations
    again = run_dtn_scenario(seed=seed, custody=True, **SCALE)
    assert fingerprint(again) == fingerprint(on)
