"""Smoke tests for the BENCH_lookup.json emission path.

The real numbers come from ``benchmarks/bench_fig12_lookup_performance``
(not run in tier 1); these tests run tiny versions of the same
experiments so the ablation and the JSON schema cannot rot unnoticed.
"""

import json

from repro.experiments.fig12 import (
    run_lookup_experiment,
    write_bench_lookup_json,
)
from repro.xp import ExperimentSpec, run_spec
from repro.xp.workloads import memo_ablation_block


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
        rows = run_lookup_experiment(
            name_counts=(100,), lookups_per_point=50, memoize=True
        )
        assert rows[0].lookups_per_second > 0


class TestBenchLookupJson:
    def test_emission_schema(self, tmp_path):
        curve = run_lookup_experiment(name_counts=(100,), lookups_per_point=50)
        ablation = memo_ablation_block(
            small_memo_run(names=200, distinct_queries=4, lookups=100)
        )
        path = tmp_path / "BENCH_lookup.json"
        payload = write_bench_lookup_json(path, curve, ablation)
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["benchmark"] == "fig12-lookup"
        assert on_disk["schema_version"] == 3
        assert on_disk["curve"][0]["names_in_tree"] == 100
        assert on_disk["curve"][0]["lookups_per_second"] > 0
        ab = on_disk["memo_ablation"]
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
        curve = run_lookup_experiment(name_counts=(100,), lookups_per_point=50)
        path = tmp_path / "BENCH_lookup.json"
        payload = write_bench_lookup_json(path, curve)
        assert payload["memo_ablation"] is None
        assert json.loads(path.read_text()) == payload
