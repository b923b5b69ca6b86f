"""End-to-end engine runs: determinism, importance semantics, suite files."""

import filecmp
from dataclasses import replace

import pytest

from repro.xp import (
    WORKLOADS,
    ExperimentSpec,
    build_matrix_report,
    default_suite,
    run_spec,
    run_suite,
    write_bench_matrix_json,
)
from repro.xp.report import importance, metric_deltas, table_filename, write_tables
from repro.xp.runner import SpecError, SpecRun, WorkloadResult
from repro.xp.workloads import DTN_SWEEP


def small_suite():
    """The two fastest toggled specs — enough to exercise the whole path."""
    suite = default_suite()
    return [suite["packet-cache-camera"], suite["update-overload"]]


class TestDeterminism:
    def test_same_seed_matrix_is_byte_identical(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for path in (first, second):
            runs = run_suite(small_suite(), timing=False)
            write_bench_matrix_json(path, build_matrix_report(runs))
        assert filecmp.cmp(first, second, shallow=False)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_metric_is_refused_and_nothing_written(
        self, tmp_path, value
    ):
        payload = build_matrix_report(run_suite(small_suite()[:1]))
        payload["suite"][0]["baseline"]["metrics"]["outage_s"] = value
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=r"baseline\.metrics\.outage_s"):
            write_bench_matrix_json(path, payload)
        assert not path.exists()

    def test_without_timing_no_wall_clock_fields_leak(self):
        runs = run_suite(small_suite(), timing=False)
        payload = build_matrix_report(runs)
        for entry in payload["suite"]:
            assert "timings" not in entry["baseline"]
            for section in entry["ablations"].values():
                assert "timings" not in section


class TestMatrixContents:
    def test_every_ablation_carries_run_id_deltas_and_primary(self):
        runs = run_suite(small_suite(), timing=False)
        payload = build_matrix_report(runs)
        for entry in payload["suite"]:
            assert entry["run_id"].startswith("xp-")
            for toggle, section in entry["ablations"].items():
                assert section["run_id"].startswith("xp-")
                assert section["run_id"] != entry["run_id"]
                assert section["deltas"]
                assert section["primary"]["metric"] in section["metrics"]

    def test_packet_cache_ablation_hurts_and_ranks(self):
        payload = build_matrix_report(run_suite(small_suite(), timing=False))
        ranked = {
            row["component"]: row for row in payload["importance_ranking"]
        }
        # Removing the cache sends repeated requests back to the origin:
        # origin_served is "lower is better", so importance is positive.
        assert ranked["packet_cache"]["importance"] > 0
        assert ranked["load_balancing"]["importance"] > 0

    def test_duplicate_run_ids_rejected(self):
        spec = small_suite()[0]
        with pytest.raises(SpecError, match="duplicate"):
            run_suite([spec, spec], timing=False)

    def test_ablations_restriction_limits_the_arms(self):
        spec = ExperimentSpec(
            name="cache-only",
            workload="packet-cache",
            seed=0,
            params={"requests": 10},
            ablations=("packet_cache",),
        )
        run = run_spec(spec, timing=False)
        assert set(run.ablations) == {"packet_cache"}

    def test_ablations_restriction_must_name_workload_toggles(self):
        spec = ExperimentSpec(
            name="bad",
            workload="packet-cache",
            seed=0,
            ablations=("custody",),
        )
        with pytest.raises(SpecError, match="does not honor"):
            run_spec(spec, timing=False)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_a_param_the_workload_does_not_take_is_refused_by_name(self, workload):
        """A misspelt param must not silently run the default: the engine
        refuses it against the driver's signature before any arm runs,
        untimed host-clock workloads included."""
        spec = ExperimentSpec(
            name="misspelt", workload=workload, params={"no_such_param": 1}
        )
        with pytest.raises(SpecError, match="takes no param no_such_param"):
            run_spec(spec, timing=False)


class TestImportanceFunction:
    def test_sign_convention_higher_is_better(self):
        # Metric collapsed when ablated -> the component helps: positive.
        assert importance(1.0, 0.2, "higher") == pytest.approx(0.8)
        # Metric improved when ablated -> component is overhead: negative.
        assert importance(0.5, 1.0, "higher") == pytest.approx(-0.5)

    def test_sign_convention_lower_is_better(self):
        assert importance(2.0, 10.0, "lower") == pytest.approx(0.8)
        assert importance(10.0, 2.0, "lower") == pytest.approx(-0.8)

    def test_bounded_and_zero_safe(self):
        assert importance(0.0, 0.0, "higher") == 0.0
        assert -1.0 <= importance(0.0, 123.0, "higher") <= 1.0

    def test_metric_deltas_cover_shared_keys_only(self):
        deltas = metric_deltas({"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0})
        assert set(deltas) == {"a"}
        assert deltas["a"]["delta"] == 2.0
        assert deltas["a"]["relative"] == pytest.approx(2.0 / 3.0)


class TestSuiteFiles:
    def test_two_runs_writing_one_file_are_refused(self, tmp_path):
        first = default_suite()["packet-cache-camera"]
        second = replace(first, name="packet-cache-twice", params={"requests": 4})
        runs = run_suite([first, second])
        with pytest.raises(SpecError, match="both write ablation__inr_packet_cache"):
            write_tables(runs, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_a_family_folds_the_runs_it_reads(self, tmp_path):
        suite = default_suite()
        written = write_tables(
            run_suite([suite[name] for name in DTN_SWEEP]), tmp_path
        )
        path = tmp_path / "BENCH_dtn.json"
        assert written[str(path)] == list(DTN_SWEEP)

    def test_a_family_without_the_runs_it_folds_is_refused(self, tmp_path):
        spec = default_suite()["delegation-matrix"]
        run = SpecRun(spec, WorkloadResult(), {}, {}, timing=False)
        with pytest.raises(SpecError, match="folds delegation-crash"):
            write_tables([run], tmp_path)
        assert not list(tmp_path.iterdir())


class TestTableNaming:
    def test_trailing_parenthetical_stripped_interior_kept(self):
        assert (
            table_filename("Ablation: spawn on lookup overload (rate 900/s)")
            == "ablation__spawn_on_lookup_overload.txt"
        )
        assert (
            table_filename(
                "Ablation: lookup memo (cached vs uncached, repeated queries)"
            )
            == "ablation__lookup_memo.txt"
        )
