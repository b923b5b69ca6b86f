"""Scaled-down shape checks for every figure experiment (Section 5).

The full-size sweeps are the default suite's specs (``repro.xp``);
these verify, quickly, that each experiment reproduces the paper's
qualitative result.
"""

import pytest

from repro.experiments.fig08 import run_saturation_experiment, saturation_point
from repro.experiments.fig09 import run_partition_experiment
from repro.experiments.fig12 import run_lookup_experiment
from repro.experiments.fig13 import run_size_experiment
from repro.experiments.fig14 import run_discovery_experiment, slope_ms_per_hop
from repro.experiments.fig15 import run_routing_experiment
from repro.resolver import CostModel


class TestFig08Shape:
    def test_cpu_saturates_before_bandwidth(self):
        rows = run_saturation_experiment(
            name_counts=(5000, 10000, 15000, 20000), measure_intervals=1
        )
        by_names = {row.total_names: row for row in rows}
        # CPU crosses 100% somewhere in 10k-15k names...
        assert by_names[10000].cpu_percent < 100 <= by_names[15000].cpu_percent
        # ...while bandwidth never reaches the 1 Mbps link capacity.
        assert all(row.bandwidth_percent < 100 for row in rows)
        # and CPU leads bandwidth at every point (the CPU-bound claim).
        assert all(row.cpu_percent > row.bandwidth_percent for row in rows)

    def test_both_scale_linearly_with_names(self):
        rows = run_saturation_experiment(name_counts=(2500, 5000, 10000),
                                         measure_intervals=1)
        assert rows[1].cpu_percent == pytest.approx(2 * rows[0].cpu_percent, rel=0.05)
        assert rows[2].cpu_percent == pytest.approx(4 * rows[0].cpu_percent, rel=0.05)

    def test_saturation_point_helper(self):
        rows = run_saturation_experiment(name_counts=(1000, 20000),
                                         measure_intervals=1)
        assert saturation_point(rows) == 20000
        assert saturation_point(rows[:1]) == -1


class TestFig09Shape:
    def test_two_machines_halve_processing_time(self):
        rows = run_partition_experiment(name_counts=(1000, 2000))
        for row in rows:
            assert row.two_vspaces_two_machines_ms == pytest.approx(
                row.one_vspace_one_machine_ms / 2, rel=0.1
            )

    def test_two_vspaces_on_one_machine_do_not_help(self):
        rows = run_partition_experiment(name_counts=(1000,))
        row = rows[0]
        assert row.two_vspaces_one_machine_ms == pytest.approx(
            row.one_vspace_one_machine_ms, rel=0.1
        )

    def test_time_grows_linearly_with_names(self):
        rows = run_partition_experiment(name_counts=(1000, 3000))
        assert rows[1].one_vspace_one_machine_ms == pytest.approx(
            3 * rows[0].one_vspace_one_machine_ms, rel=0.1
        )


class TestFig12Shape:
    def test_throughput_decays_mildly(self):
        # Each point is ~2 ms of wall clock: one sample of each is at
        # the mercy of whatever else the host is doing, so the best of
        # five stands for the point (same seed, same trees, same queries).
        runs = [
            run_lookup_experiment(name_counts=(200, 2000), lookups_per_point=200)
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
        rows = run_lookup_experiment(name_counts=(1000,), lookups_per_point=200)
        assert rows[0].lookups_per_second > 300


class TestFig13Shape:
    def test_memory_grows_linearly_after_vocabulary_fills(self):
        # Structural (node) growth tails off after the first few
        # thousand names; past that, additions are records + pointers
        # and growth is linear (the paper's Figure 13 shape).
        # Hash-container capacity doubling makes the instantaneous
        # slope lumpy (Java showed the same), so we bound the ratio of
        # successive slopes rather than demanding exact linearity.
        rows = run_size_experiment(name_counts=(4000, 8000, 12000))
        per_name_1 = (rows[1].tree_bytes - rows[0].tree_bytes) / 4000
        per_name_2 = (rows[2].tree_bytes - rows[1].tree_bytes) / 4000
        assert 1 / 3 <= per_name_2 / per_name_1 <= 3
        assert rows[0].tree_bytes < rows[1].tree_bytes < rows[2].tree_bytes

    def test_early_growth_steeper_than_late(self):
        rows = run_size_experiment(name_counts=(500, 1000, 8000, 12000))
        early = (rows[1].tree_bytes - rows[0].tree_bytes) / 500
        late = (rows[3].tree_bytes - rows[2].tree_bytes) / 4000
        assert early > late

    def test_megabyte_scale(self):
        rows = run_size_experiment(name_counts=(2000,))
        assert 0.1 < rows[0].tree_megabytes < 20


class TestFig14Shape:
    def test_discovery_time_linear_in_hops(self):
        rows, _ = run_discovery_experiment(max_hops=5)
        slope = slope_ms_per_hop(rows)
        assert slope < 10.0  # the paper's bound
        # near-perfect linearity: residuals small relative to the slope
        for row in rows:
            predicted = rows[0].discovery_ms + slope * (row.hops - 1)
            assert row.discovery_ms == pytest.approx(predicted, rel=0.15)

    def test_absolute_times_are_tens_of_ms(self):
        rows, _ = run_discovery_experiment(max_hops=5)
        assert rows[-1].discovery_ms < 100.0


class TestFig15Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_routing_experiment(name_counts=(250, 2500))

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

    def test_artifact_ablation_flattens_local_case(self):
        rows = run_routing_experiment(
            name_counts=(250, 2500),
            costs=CostModel(model_delivery_artifact=False),
        )
        assert rows[1].local_ms == pytest.approx(rows[0].local_ms, rel=0.05)


class TestLookupModelCheck:
    def test_measures_the_recursion_not_memo_hits(self, monkeypatch):
        """The §5.1.1 check draws its queries from the few names it
        inserted, so most repeat: a memoized tree would answer them from
        the memo and the T(d) fit would be to hash hits."""
        from repro.experiments import ablations

        measured = []

        class RecordingTree(ablations.NameTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                measured.append(self)

        monkeypatch.setattr(ablations, "NameTree", RecordingTree)
        rows, _t_us, _b_us = ablations.run_lookup_model_check(
            depths=(1, 2), names_per_tree=40, lookups=60
        )
        assert [row.depth for row in rows] == [1, 2]
        assert measured
        for tree in measured:
            assert len(tree) > 0
            assert tree.memo_hits == 0
