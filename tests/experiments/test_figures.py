"""Scaled-down shape checks for every figure experiment (Section 5).

The full-size sweeps are the default suite's specs (``repro.xp``);
these run the same workloads through ``run_spec`` at reduced params and
verify, quickly, that each reproduces the paper's qualitative result.
"""

import dataclasses

import pytest

from repro.xp import ExperimentSpec, default_suite, run_spec
from repro.xp.experiments import lookup_model
from repro.xp.experiments.fig08 import saturation_point
from repro.xp.experiments.fig14 import slope_ms_per_hop


def run(workload, timing=False, **params):
    """The baseline arm's rows of a reduced ``workload`` spec."""
    spec = ExperimentSpec(name=f"shape-{workload}", workload=workload, params=params)
    return run_spec(spec, timing=timing).baseline.details["rows"]


class TestFig08Shape:
    def test_cpu_saturates_before_bandwidth(self):
        rows = run(
            "saturation", name_counts=(5000, 10000, 15000, 20000), measure_intervals=1
        )
        by_names = {row.total_names: row for row in rows}
        # CPU crosses 100% somewhere in 10k-15k names...
        assert by_names[10000].cpu_percent < 100 <= by_names[15000].cpu_percent
        # ...while bandwidth never reaches the 1 Mbps link capacity.
        assert all(row.bandwidth_percent < 100 for row in rows)
        # and CPU leads bandwidth at every point (the CPU-bound claim).
        assert all(row.cpu_percent > row.bandwidth_percent for row in rows)

    def test_both_scale_linearly_with_names(self):
        rows = run("saturation", name_counts=(2500, 5000, 10000), measure_intervals=1)
        assert rows[1].cpu_percent == pytest.approx(2 * rows[0].cpu_percent, rel=0.05)
        assert rows[2].cpu_percent == pytest.approx(4 * rows[0].cpu_percent, rel=0.05)

    def test_saturation_point_helper(self):
        rows = run("saturation", name_counts=(1000, 20000), measure_intervals=1)
        assert saturation_point(rows) == 20000
        assert saturation_point(rows[:1]) == -1


class TestFig09Shape:
    def test_two_machines_halve_processing_time(self):
        rows = run("partition", name_counts=(1000, 2000))
        for row in rows:
            assert row.two_vspaces_two_machines_ms == pytest.approx(
                row.one_vspace_one_machine_ms / 2, rel=0.1
            )

    def test_two_vspaces_on_one_machine_do_not_help(self):
        rows = run("partition", name_counts=(1000,))
        row = rows[0]
        assert row.two_vspaces_one_machine_ms == pytest.approx(
            row.one_vspace_one_machine_ms, rel=0.1
        )

    def test_time_grows_linearly_with_names(self):
        rows = run("partition", name_counts=(1000, 3000))
        assert rows[1].one_vspace_one_machine_ms == pytest.approx(
            3 * rows[0].one_vspace_one_machine_ms, rel=0.1
        )


class TestFig12Shape:
    def test_throughput_decays_mildly(self):
        # Each point is ~2 ms of wall clock: one sample of each is at
        # the mercy of whatever else the host is doing, so the best of
        # five stands for the point (same seed, same trees, same queries).
        runs = [
            run(
                "lookup-curve",
                timing=True,
                name_counts=(200, 2000),
                lookups_per_point=200,
            )
            for _ in range(5)
        ]
        small, large = (
            max(rows[point].lookups_per_second for rows in runs) for point in (0, 1)
        )
        assert large < small
        # mild decay, not collapse: within 5x across a 10x size range
        assert large > small / 5

    def test_rates_are_high(self):
        """The implementation should sustain at least hundreds of
        lookups per second even on modest hardware."""
        rows = run(
            "lookup-curve", timing=True, name_counts=(1000,), lookups_per_point=200
        )
        assert rows[0].lookups_per_second > 300


class TestFig13Shape:
    """One timed run of the ``fig13-tree-size`` spec at the union of its
    points and the ones the shape checks read: the tree grows through
    one seeded name list, so each point's size is what a run ending
    there measures."""

    SUITE_POINTS = (100, 1000, 2500, 5000, 7500, 10000, 14300)

    @pytest.fixture(scope="class")
    def rows(self):
        spec = default_suite()["fig13-tree-size"]
        points = sorted(set(self.SUITE_POINTS) | {500, 2000, 4000, 8000, 12000})
        spec = dataclasses.replace(spec, params={"name_counts": tuple(points)})
        rows = run_spec(spec, timing=True).baseline.details["rows"]
        return {row.names_in_tree: row for row in rows}

    def test_memory_grows_linearly_after_vocabulary_fills(self, rows):
        # Structural (node) growth tails off after the first few
        # thousand names; past that, additions are records + pointers
        # and growth is linear (the paper's Figure 13 shape).
        # Hash-container capacity doubling makes the instantaneous
        # slope lumpy (Java showed the same), so we bound the ratio of
        # successive slopes rather than demanding exact linearity.
        first, second, third = (rows[n] for n in (4000, 8000, 12000))
        per_name_1 = (second.tree_bytes - first.tree_bytes) / 4000
        per_name_2 = (third.tree_bytes - second.tree_bytes) / 4000
        assert 1 / 3 <= per_name_2 / per_name_1 <= 3
        assert first.tree_bytes < second.tree_bytes < third.tree_bytes

    def test_early_growth_steeper_than_late(self, rows):
        early = (rows[1000].tree_bytes - rows[500].tree_bytes) / 500
        late = (rows[12000].tree_bytes - rows[8000].tree_bytes) / 4000
        assert early > late

    def test_megabyte_scale(self, rows):
        assert 0.1 < rows[2000].tree_megabytes < 20

    def test_tree_size_grows_to_the_papers_megabytes(self, rows):
        suite_rows = [rows[n] for n in self.SUITE_POINTS]
        sizes = [row.tree_bytes for row in suite_rows]
        assert sizes == sorted(sizes)  # monotone growth
        # Same order of magnitude as the paper at full size (0.5-4 MB there).
        assert 0.5 < suite_rows[-1].tree_megabytes < 40
        # Early slope (vocabulary building) steeper than the late slope.
        early = (suite_rows[1].tree_bytes - suite_rows[0].tree_bytes) / 900
        late = (suite_rows[-1].tree_bytes - suite_rows[-2].tree_bytes) / 4300
        assert early > late


class TestFig14Shape:
    def test_discovery_time_linear_in_hops(self):
        rows = run("discovery", max_hops=5)
        slope = slope_ms_per_hop(rows)
        assert slope < 10.0  # the paper's bound
        # near-perfect linearity: residuals small relative to the slope
        for row in rows:
            predicted = rows[0].discovery_ms + slope * (row.hops - 1)
            assert row.discovery_ms == pytest.approx(predicted, rel=0.15)

    def test_absolute_times_are_tens_of_ms(self):
        rows = run("discovery", max_hops=5)
        assert rows[-1].discovery_ms < 100.0


class TestFig15Shape:
    @pytest.fixture(scope="class")
    def spec_run(self):
        return run_spec(ExperimentSpec(
            name="shape-routing",
            workload="routing",
            params={"name_counts": (250, 2500)},
        ))

    @pytest.fixture(scope="class")
    def rows(self, spec_run):
        return spec_run.baseline.details["rows"]

    def test_local_case_grows_with_names(self, rows):
        assert rows[1].local_ms > 2 * rows[0].local_ms

    def test_local_per_packet_matches_paper_range(self, rows):
        assert rows[0].local_ms / 100 == pytest.approx(3.1, rel=0.15)

    def test_remote_case_flat(self, rows):
        assert rows[1].remote_same_vspace_ms == pytest.approx(
            rows[0].remote_same_vspace_ms, rel=0.05
        )

    def test_remote_per_packet_near_9_8ms(self, rows):
        assert rows[0].remote_same_vspace_ms / 100 == pytest.approx(9.8, rel=0.1)

    def test_cross_vspace_constant_near_381ms(self, rows):
        for row in rows:
            assert row.remote_other_vspace_ms == pytest.approx(381, rel=0.1)

    def test_artifact_ablation_flattens_local_case(self, spec_run):
        rows = spec_run.ablations["delivery_artifact"].details["rows"]
        assert rows[1].local_ms == pytest.approx(rows[0].local_ms, rel=0.05)


class TestLookupModelCheck:
    def test_measures_the_recursion_not_memo_hits(self, monkeypatch):
        """The §5.1.1 check draws its queries from the few names it
        inserted, so most repeat: a memoized tree would answer them from
        the memo and the T(d) fit would be to hash hits."""
        measured = []

        class RecordingTree(lookup_model.NameTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                measured.append(self)

        monkeypatch.setattr(lookup_model, "NameTree", RecordingTree)
        rows = run(
            "lookup-model", timing=True, depths=(1, 2), names_per_tree=40, lookups=60
        )
        assert [row.depth for row in rows] == [1, 2]
        assert measured
        for tree in measured:
            assert len(tree) > 0
            assert tree.memo_hits == 0
