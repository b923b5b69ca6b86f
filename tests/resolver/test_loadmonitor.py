"""Tests for the windowed load monitor: rates are the deltas of the
resolver's own counters since the last sample."""

import pytest

from repro.resolver import InrStats, LoadMonitor


def _monitor(now=0.0, **counted):
    stats = InrStats(lambda: ())
    for name, value in counted.items():
        setattr(stats, name, value)
    return stats, LoadMonitor(stats, now=now)


class TestLoadMonitor:
    def test_rates_over_window(self):
        stats, monitor = _monitor()
        stats.lookups += 100
        stats.update_names_processed += 480
        stats.advertisements_processed += 20
        sample = monitor.sample(now=10.0)
        assert sample.lookups_per_second == pytest.approx(10.0)
        assert sample.update_names_per_second == pytest.approx(50.0)
        assert sample.window == pytest.approx(10.0)

    def test_sampling_resets_the_window(self):
        stats, monitor = _monitor()
        stats.lookups += 40
        monitor.sample(now=10.0)
        second = monitor.sample(now=20.0)
        assert second.lookups_per_second == 0.0
        assert second.window == pytest.approx(10.0)

    def test_what_was_counted_before_the_monitor_is_not_load(self):
        stats, monitor = _monitor(
            now=5.0, lookups=1000, update_names_processed=1000,
            advertisements_processed=1000,
        )
        stats.lookups += 3
        sample = monitor.sample(now=6.0)
        assert sample.lookups_per_second == pytest.approx(3.0)
        assert sample.update_names_per_second == 0.0

    def test_totals_accumulate_across_windows(self):
        stats, monitor = _monitor()
        stats.lookups += 3
        assert monitor.sample(now=1.0).lookups_per_second == pytest.approx(3.0)
        stats.lookups += 4
        assert monitor.sample(now=2.0).lookups_per_second == pytest.approx(4.0)
        assert stats.lookups == 7  # sampling reads the counters, never writes them

    def test_zero_width_window_does_not_divide_by_zero(self):
        stats, monitor = _monitor(now=5.0)
        stats.lookups += 1
        sample = monitor.sample(now=5.0)
        assert sample.lookups_per_second > 0  # huge, but finite
