"""The committed default suite's specs make their claims at full scale.

Each test runs one spec of ``default_suite()`` exactly as
``repro-xp run`` does (the host-dependent ones timed, as
``--timing`` runs them) and asserts the shape its table is quoted for.
The figures whose shape ``tests/experiments/`` already checks (Figs. 8,
9 and 13, the DNS baseline's outages) are not asserted again here.
"""

import math

from repro.analysis import fit_parameters, relative_error
from repro.xp import default_suite, run_spec

SUITE = default_suite()


def test_refresh_interval_trades_bandwidth_for_staleness():
    rows = run_spec(SUITE["refresh-interval"]).baseline.details["rows"]
    # Faster refresh -> more bandwidth, faster staleness removal.
    bandwidths = [row.control_bytes_per_second for row in rows]
    removals = [row.stale_name_removal_s for row in rows]
    assert bandwidths == sorted(bandwidths, reverse=True)
    assert removals == sorted(removals)
    # Roughly proportional both ways across the 7.5x interval span.
    assert bandwidths[0] / bandwidths[-1] > 4
    assert removals[-1] / removals[0] > 3


def test_reliable_delta_saves_bandwidth_and_removes_faster():
    soft, reliable = run_spec(SUITE["update-modes"]).baseline.details["rows"]
    assert soft.mode == "soft-state"
    # Reliable-delta slashes steady-state bandwidth by an order of
    # magnitude or more...
    assert reliable.steady_state_bytes_per_second < (
        soft.steady_state_bytes_per_second / 10
    )
    # ...and removes dead names faster (origin expiry only, no
    # per-hop soft-state cascade)...
    assert reliable.stale_name_removal_s < soft.stale_name_removal_s * 0.7
    # ...while changes propagate equally fast in both modes (triggered
    # updates are immediate either way).
    assert abs(reliable.change_propagation_s - soft.change_propagation_s) < 0.1


def test_relaxation_repairs_the_degraded_tree():
    result = run_spec(SUITE["overlay-relaxation"]).baseline.details["result"]
    assert result.relaxed_tree_cost < result.initial_tree_cost * 0.7
    assert result.relaxed_tree_cost <= result.optimal_like_cost * 1.5


def test_slower_soft_state_clocks_are_cheaper_and_slower_to_heal():
    rows = run_spec(SUITE["recovery-clocks"]).baseline.details["rows"]
    # Every fault at every sweep point must actually heal: an inf here
    # means a crashed resolver never fully rejoined or a failed-over
    # DSR never reconverged on the live set.
    for row in rows:
        assert math.isfinite(row.crash_detect_p100)
        assert math.isfinite(row.crash_mttr_p50)
        assert math.isfinite(row.crash_mttr_p100)
        assert math.isfinite(row.failover_mttr_p100)
        assert row.violations == 0
    # Slower clocks -> cheaper control plane but slower failure
    # detection; repair time is monotone too (restart delay floor plus
    # a refresh-interval-bound name rebuild).
    bandwidths = [row.control_bytes_per_second for row in rows]
    detects = [row.crash_detect_p100 for row in rows]
    repairs = [row.crash_mttr_p100 for row in rows]
    assert bandwidths == sorted(bandwidths, reverse=True)
    assert detects == sorted(detects)
    assert repairs == sorted(repairs)
    # The 4x clock span should move both sides of the tradeoff
    # materially, not within noise.
    assert bandwidths[0] / bandwidths[-1] > 2
    assert detects[-1] / detects[0] > 2


def test_lookup_time_tracks_the_t_d_model():
    # Each depth is a few ms of wall clock: one sample is at the mercy
    # of whatever else the host (or a garbage collection over a long
    # test session) is doing, so the best of five runs of the spec
    # stands for each depth (same seed, same trees, same queries), and
    # the model is fitted to those.
    spec = SUITE["lookup-model-check"]
    runs = [run_spec(spec, timing=True).baseline.details["rows"] for _ in range(5)]
    rows = [min(depth, key=lambda row: row.measured_us) for depth in zip(*runs)]
    n_a = 2  # the driver's attributes_per_level, which the spec keeps
    fit = fit_parameters([(row.depth, n_a, row.measured_us) for row in rows])
    # Growth is super-linear in d (the n_a^d term).
    assert rows[-1].measured_us > 3 * rows[0].measured_us
    # The fitted model tracks the deeper measurements well.
    for row in rows[1:]:
        assert relative_error(fit.predict(row.depth, n_a), row.measured_us) < 0.5


def test_packet_cache_shields_the_origin():
    spec_run = run_spec(SUITE["packet-cache-camera"])
    result = spec_run.baseline.details["result"]
    assert result.origin_served <= 2
    assert result.cache_answers >= result.requests - 2
    # The ablated arm: with the cache off, nothing shields the origin.
    ablated = spec_run.ablations["packet_cache"].details["result"]
    assert ablated.cache_answers == 0
    assert ablated.origin_served == ablated.requests


def test_lookup_overload_spawns_a_helper_that_retires():
    spec_run = run_spec(SUITE["spawn-overload"])
    result = spec_run.baseline.details["result"]
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
    off = spec_run.ablations["load_balancing"].details["result"]
    assert not off.spawned_addresses
    assert off.inrs_during_load == 1


def test_update_overload_delegates_a_resolvable_vspace():
    spec_run = run_spec(SUITE["update-overload"])
    result = spec_run.baseline.details["result"]
    assert len(result.vspaces_after) < len(result.vspaces_before)
    assert result.delegate_resolvers
    assert result.still_resolvable
    # Ablated: the overloaded resolver keeps every vspace.
    off = spec_run.ablations["load_balancing"].details["result"]
    assert len(off.vspaces_after) == len(off.vspaces_before)
    assert not off.delegate_resolvers


def test_dns_never_recovering_is_a_metric_not_an_infinity():
    spec_run = run_spec(SUITE["dns-mobility"])
    assert spec_run.toggles == {} and spec_run.ablations == {}
    metrics = spec_run.baseline.metrics
    assert metrics["recovered_dns_stale"] == 0.0
    assert "outage_s_dns_stale" not in metrics
    assert metrics["recovered_ins"] == 1.0
    assert all(math.isfinite(value) for value in metrics.values())
