"""Each Section 5 figure's shape claims.

Figs. 8, 9, 14 and 15 are a pure function of their specs (virtual
time, counters): each is judged on the full-scale rows the committed
evaluation holds under benchmarks/results/, which CI's byte gate
regenerates from the default suite, so no test here re-runs them.
Figs. 12 and 13, the Section 5.1.1 T(d) fit and the lookup-model memo
check are measured on this host, so their committed tables are
host-dependent and only a timed run writes them: each is judged here
on a live run.
"""

import dataclasses
import statistics

import pytest

from repro.xp import ExperimentSpec, default_suite, run_spec
from repro.xp.experiments import lookup_model

from ..xp.test_committed_artifacts import committed, suite_entry


def run(workload, timing=False, **params):
    """The baseline arm's rows of a reduced ``workload`` spec."""
    spec = ExperimentSpec(name=f"shape-{workload}", workload=workload, params=params)
    return run_spec(spec, timing=timing).baseline.details["rows"]


class TestFig08Shape:
    """The committed ``fig08-saturation`` row: ``cpu_percent_<names>``
    and ``bandwidth_percent_<names>`` at each of its points."""

    @pytest.fixture(scope="class")
    def percents(self):
        entry = suite_entry("fig08-saturation")
        metrics = entry["baseline"]["metrics"]
        # CPU and link compare past zero names.
        points = [n for n in entry["params"]["name_counts"] if n]
        return (
            {n: metrics[f"cpu_percent_{n}"] for n in points},
            {n: metrics[f"bandwidth_percent_{n}"] for n in points},
        )

    def test_cpu_saturates_before_bandwidth(self, percents):
        cpu, bandwidth = percents
        # CPU crosses 100% somewhere in 10k-15k names...
        assert cpu[10000] < 100 <= cpu[15000]
        # ...while bandwidth never reaches the 1 Mbps link capacity.
        assert all(value < 100 for value in bandwidth.values())
        # and CPU leads bandwidth at every point (the CPU-bound claim).
        assert all(cpu[n] > bandwidth[n] for n in cpu)

    def test_both_scale_linearly_with_names(self, percents):
        for series in percents:
            for n, value in series.items():
                assert value == pytest.approx(n / 2500 * series[2500], rel=0.05)


class TestFig09Shape:
    """The committed ``fig09-partition`` row: each configuration's
    update-processing time, ``<configuration>_ms_<names>``."""

    @pytest.fixture(scope="class")
    def times(self):
        entry = suite_entry("fig09-partition")
        metrics = entry["baseline"]["metrics"]
        return {
            config: {
                n: metrics[f"{config}_ms_{n}"] for n in entry["params"]["name_counts"]
            }
            for config in (
                "one_vspace_one_machine",
                "two_vspaces_one_machine",
                "two_vspaces_two_machines",
            )
        }

    def test_two_machines_halve_processing_time(self, times):
        for n, one in times["one_vspace_one_machine"].items():
            assert times["two_vspaces_two_machines"][n] == pytest.approx(
                one / 2, rel=0.1
            )

    def test_two_vspaces_on_one_machine_do_not_help(self, times):
        for n, one in times["one_vspace_one_machine"].items():
            assert times["two_vspaces_one_machine"][n] == pytest.approx(one, rel=0.1)

    def test_time_grows_linearly_with_names(self, times):
        one = times["one_vspace_one_machine"]
        for n, value in one.items():
            assert value == pytest.approx(n / 1000 * one[1000], rel=0.1)


class TestFig12Shape:
    def test_throughput_decays_mildly(self):
        # Each point is ~2 ms of wall clock: one sample of each is at
        # the mercy of whatever else the host is doing. A run measures
        # the small and the large point back to back (same seed, same
        # trees, same queries), so each run gives one paired ratio that
        # a load shared by both points cancels out of; the median of
        # seven such ratios stands for the curve.
        runs = [
            run(
                "lookup-curve",
                timing=True,
                name_counts=(200, 2000),
                lookups_per_point=200,
            )
            for _ in range(7)
        ]
        small_per_large = statistics.median(
            rows[0].lookups_per_second / rows[1].lookups_per_second for rows in runs
        )
        small, large = small_per_large, 1.0
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
        # "Early" is where the vocabulary is built: this workload's tree
        # has 566 of its 820 value-nodes at 100 names and 814 at 500.
        # From 500 on a name adds its record and its slot's bits alone;
        # the next test bounds that growth.
        early = (rows[500].tree_bytes - rows[100].tree_bytes) / 400
        late = (rows[12000].tree_bytes - rows[8000].tree_bytes) / 4000
        assert early > late

    def test_growth_is_linear_once_the_vocabulary_fills(self, rows):
        # 500 -> 1,000 names, the first window after the vocabulary
        # fills, grows within 15% of the late window's rate, and so do
        # the figure's own windows from 2,500 names on, against each
        # other. A container's resize is the only lump left.
        def slope(low, high):
            return (rows[high].tree_bytes - rows[low].tree_bytes) / (high - low)

        late = slope(8000, 12000)
        assert 0.85 * late <= slope(500, 1000) <= 1.15 * late
        points = [n for n in self.SUITE_POINTS if n >= 2500]
        slopes = [slope(low, high) for low, high in zip(points, points[1:])]
        assert max(slopes) <= 1.15 * min(slopes), slopes

    def test_megabyte_scale(self, rows):
        assert 0.1 < rows[2000].tree_megabytes < 20

    def test_tree_size_grows_to_the_papers_megabytes(self, rows):
        suite_rows = [rows[n] for n in self.SUITE_POINTS]
        sizes = [row.tree_bytes for row in suite_rows]
        assert sizes == sorted(sizes)  # monotone growth
        # Same order of magnitude as the paper at full size (0.5-4 MB there).
        assert 0.5 < suite_rows[-1].tree_megabytes < 40


class TestFig14Shape:
    """The committed BENCH_discovery.json rows, one to nine hops."""

    @pytest.fixture(scope="class")
    def discovery(self):
        return committed("BENCH_discovery.json")

    def test_discovery_time_linear_in_hops(self, discovery):
        rows, slope = discovery["rows"], discovery["slope_ms_per_hop"]
        # near-perfect linearity: residuals small relative to the slope
        intercept = rows[0]["discovery_ms"] - slope * rows[0]["hops"]
        for row in rows:
            assert row["discovery_ms"] == pytest.approx(
                intercept + slope * row["hops"], rel=0.1
            )

    def test_absolute_times_are_tens_of_ms(self, discovery):
        assert discovery["rows"][-1]["discovery_ms"] < 100.0


class TestFig15Shape:
    """The committed BENCH_routing.json rows (a 100-packet burst at
    each vspace size), and the ``delivery_artifact`` arm of the
    committed ``fig15-routing`` entry."""

    @pytest.fixture(scope="class")
    def rows(self):
        rows = committed("BENCH_routing.json")["rows"]
        return {row["names_in_vspace"]: row for row in rows}

    def test_local_case_grows_with_names(self, rows):
        assert rows[2500]["local_ms"] > 2 * rows[250]["local_ms"]

    def test_local_per_packet_matches_paper_range(self, rows):
        # 3.1 ms/packet at 250 names, 19 at 5,000 (the paper's artifact).
        assert rows[250]["local_ms"] / 100 == pytest.approx(3.1, rel=0.15)
        assert rows[5000]["local_ms"] / 100 == pytest.approx(19.0, rel=0.15)

    def test_remote_case_flat(self, rows):
        for row in rows.values():
            assert row["remote_same_vspace_ms"] == pytest.approx(
                rows[250]["remote_same_vspace_ms"], rel=0.05
            )

    def test_remote_per_packet_near_9_8ms(self, rows):
        assert rows[250]["remote_same_vspace_ms"] / 100 == pytest.approx(9.8, rel=0.1)

    def test_cross_vspace_constant_near_381ms(self, rows):
        for row in rows.values():
            assert row["remote_other_vspace_ms"] == pytest.approx(381, rel=0.1)

    def test_artifact_ablation_flattens_local_case(self, rows):
        ablated = suite_entry("fig15-routing")["ablations"]["delivery_artifact"]
        local = {n: ablated["metrics"][f"local_ms_{n}"] for n in rows}
        for value in local.values():
            assert value == pytest.approx(local[250], rel=0.05)


def test_lookup_time_tracks_the_t_d_model():
    # Each depth is a few ms of wall clock: one sample is at the mercy
    # of whatever else the host (or a garbage collection over a long
    # test session) is doing, so five runs of the spec are taken (same
    # seed, same trees, same queries). Each run fits the model to its
    # own rows and stores the prediction on each one.
    spec = default_suite()["lookup-model-check"]
    runs = [run_spec(spec, timing=True).baseline.details["rows"] for _ in range(5)]
    depths = list(zip(*runs))
    best = [min(row.measured_us for row in rows) for rows in depths]
    # Growth is super-linear in d (the n_a^d term).
    assert best[-1] > 3 * best[0]
    # The fitted model tracks the deeper measurements well: in the
    # median run, each deeper depth's relative error is under one half.
    for rows in depths[1:]:
        assert statistics.median(
            abs(row.predicted_us - row.measured_us) / row.measured_us for row in rows
        ) < 0.5


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
