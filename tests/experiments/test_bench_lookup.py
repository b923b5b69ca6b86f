"""Smoke tests for the BENCH_lookup.json payload.

The real numbers come from ``benchmarks/perf_smoke.py`` (not run in
tier 1); these tests run tiny versions of the same experiments so the
ablation and the JSON schema cannot rot unnoticed.
"""

from repro.xp import ExperimentSpec, run_spec
from repro.xp.experiments.fig12 import bench_lookup_payload, memo_ablation_block


def small_memo_run(**params):
    """The ``lookup`` workload at smoke scale: baseline memoized,
    ``lookup_memo`` arm uncached, wall-clock timings on."""
    spec = ExperimentSpec(
        name="memo-smoke",
        workload="lookup",
        seed=0,
        params=params,
        ablations=("lookup_memo",),
    )
    return run_spec(spec, timing=True)


def small_curve(**params):
    """The ``lookup-curve`` workload's rows at smoke scale, timed."""
    spec = ExperimentSpec(
        name="curve-smoke", workload="lookup-curve", params=params
    )
    return run_spec(spec, timing=True).baseline.details["rows"]


class TestMemoAblation:
    def test_small_ablation_counters(self):
        run = small_memo_run(
            names=300, distinct_queries=8, lookups=400, refresh_every=50
        )
        result = memo_ablation_block(run)
        # Each distinct query misses exactly once; refreshes never
        # invalidate; everything else hits.
        assert result["memo_misses"] == 8
        assert result["memo_hits"] == 400 - 8
        assert result["memo_invalidations"] == 0
        assert result["refreshes_during_cached_run"] == 8
        assert result["uncached_lookups_per_second"] > 0
        assert result["cached_lookups_per_second"] > 0
        # The uncached arm ran the same refreshes and never hit.
        uncached = run.ablations["lookup_memo"].metrics
        assert uncached["refreshes"] == 8
        assert uncached["memo_hits"] == 0

    def test_memoized_curve_still_runs(self):
        rows = small_curve(name_counts=(100,), lookups_per_point=50, memoize=True)
        assert rows[0].lookups_per_second > 0


class TestBenchLookupJson:
    def test_emission_schema(self):
        curve = small_curve(name_counts=(100,), lookups_per_point=50)
        ablation = memo_ablation_block(
            small_memo_run(names=200, distinct_queries=4, lookups=100)
        )
        payload = bench_lookup_payload(curve, ablation)
        assert payload["benchmark"] == "fig12-lookup"
        assert payload["schema_version"] == 3
        assert payload["curve"][0]["names_in_tree"] == 100
        assert payload["curve"][0]["lookups_per_second"] > 0
        ab = payload["memo_ablation"]
        assert ab["memo_hits"] > 0
        assert (ab["names_in_tree"], ab["distinct_queries"], ab["lookups"]) == (
            200, 4, 100
        )
        assert set(ab) == {
            "names_in_tree",
            "distinct_queries",
            "lookups",
            "uncached_lookups_per_second",
            "cached_lookups_per_second",
            "speedup",
            "memo_hits",
            "memo_misses",
            "refreshes_during_cached_run",
            "memo_invalidations",
        }

    def test_emission_without_ablation(self, tmp_path):
        curve = small_curve(name_counts=(100,), lookups_per_point=50)
        payload = bench_lookup_payload(curve)
        assert payload["memo_ablation"] is None
        assert payload["curve"][0]["names_in_tree"] == 100
