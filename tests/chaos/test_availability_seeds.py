"""The availability scenario as a seed sweep: twelve seeds at the normal
and at the overloaded request rate, the sweep that found resolver-side
request shedding worse on six of twelve seeds and better on none. What
the client's resilience layer promises must hold on every one of them:
no reply hangs, most requests succeed, and a seed reproduces itself
under ``tests/literal.py``'s ``literal_domain()``: the second run of
each spec takes every reference arm at once and must equal the first
exactly, report and datagrams."""

import pytest

from repro.xp import ExperimentSpec

from ..literal import check_spec

#: The lowest success rate observed over the sweep is 0.794 (seed 10 at
#: one request per 0.1 s).
SUCCESS_FLOOR = 0.75


@pytest.mark.parametrize("lookup_interval", [0.5, 0.1])
@pytest.mark.parametrize("seed", range(1, 13))
def test_availability_holds_across_seeds(seed, lookup_interval):
    spec = ExperimentSpec(
        name="availability-sweep",
        workload="availability",
        seed=seed,
        toggles={"obs_tracing": False},
        params={"lookup_interval": lookup_interval},
        ablations=("resilience",),
    )
    run = check_spec(spec)
    report = run.baseline.details["report"]
    assert report.requests_hung == 0
    assert report.success_rate >= SUCCESS_FLOOR
