"""Tests for the windowed load monitor."""

import pytest

from repro.resolver import LoadMonitor


class TestLoadMonitor:
    def test_rates_over_window(self):
        monitor = LoadMonitor(now=0.0)
        for _ in range(100):
            monitor.count_lookup()
        monitor.count_update_names(500)
        sample = monitor.sample(now=10.0)
        assert sample.lookups_per_second == pytest.approx(10.0)
        assert sample.update_names_per_second == pytest.approx(50.0)
        assert sample.window == pytest.approx(10.0)

    def test_sampling_resets_the_window(self):
        monitor = LoadMonitor(now=0.0)
        monitor.count_lookup(40)
        monitor.sample(now=10.0)
        second = monitor.sample(now=20.0)
        assert second.lookups_per_second == 0.0

    def test_totals_accumulate_across_windows(self):
        monitor = LoadMonitor(now=0.0)
        monitor.count_lookup(3)
        monitor.sample(now=1.0)
        monitor.count_lookup(4)
        monitor.sample(now=2.0)
        assert monitor.total_lookups == 7

    def test_zero_width_window_does_not_divide_by_zero(self):
        monitor = LoadMonitor(now=5.0)
        monitor.count_lookup()
        sample = monitor.sample(now=5.0)
        assert sample.lookups_per_second > 0  # huge, but finite

