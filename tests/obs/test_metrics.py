"""Tests for the unified metrics registry."""

import json

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry, merge_counts


class TestCounter:
    def test_counts_per_label_set(self):
        counter = Counter("requests")
        counter.inc(inr="inr-1")
        counter.inc(2.0, inr="inr-1")
        counter.inc(inr="inr-2")
        assert counter.snapshot() == {"inr=inr-1": 3.0, "inr=inr-2": 1.0}

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.inc(b="2", a="1")
        counter.inc(a="1", b="2")
        assert counter.snapshot() == {"a=1,b=2": 2.0}

    def test_decrease_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1.0)

    def test_unlabelled_series(self):
        counter = Counter("c")
        counter.inc()
        assert counter.snapshot() == {"": 1.0}


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("names")
        gauge.set(5.0, vspace="default")
        gauge.set(7.0, vspace="default")
        assert gauge.snapshot() == {"vspace=default": 7.0}


class TestRegistry:
    def test_families_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_ingest_maps_snapshot_fields_to_labelled_counters(self):
        registry = MetricsRegistry()
        registry.ingest(
            "inr",
            {
                "packets_forwarded": 3,
                "drops_by_cause": {"no-route": 2, "hop-limit": 1},
                "terminated": True,  # bool: configuration, not a count
                "address": "inr-1",  # non-numeric: skipped
            },
            inr="inr-1",
        )
        snap = registry.snapshot()
        assert snap["counters"]["inr.packets_forwarded"] == {"inr=inr-1": 3.0}
        assert snap["counters"]["inr.drops_by_cause"] == {
            "cause=hop-limit,inr=inr-1": 1.0,
            "cause=no-route,inr=inr-1": 2.0,
        }
        assert "inr.terminated" not in snap["counters"]

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        snap = registry.snapshot()
        # no metric is a histogram; the committed snapshots keep the group
        assert snap == {"counters": {"c": {"": 1.0}}, "gauges": {"g": {"": 1.0}},
                        "histograms": {}}

    def test_to_json_is_deterministic(self):
        def build() -> MetricsRegistry:
            registry = MetricsRegistry()
            # Deliberately unordered operations; the snapshot must not
            # depend on insertion order.
            registry.counter("b").inc(2.0, z="1", a="2")
            registry.counter("a").inc(1.0)
            registry.gauge("g").set(3.0, node="n2")
            registry.gauge("g").set(1.0, node="n1")
            return registry

        def canonical(registry: MetricsRegistry) -> str:
            return json.dumps(registry.snapshot(), sort_keys=True)

        assert canonical(build()) == canonical(build())


class TestMergeCounts:
    def test_sums_numeric_fields_across_snapshots(self):
        totals = merge_counts(
            [
                {"retries": 2, "failovers": 1, "resolver": "inr-1"},
                {"retries": 3, "failovers": 0, "resolver": "inr-2"},
            ]
        )
        assert totals["retries"] == 5.0
        assert totals["failovers"] == 1.0
        assert "resolver" not in totals

    def test_nested_mappings_sum_per_inner_key(self):
        totals = merge_counts(
            [
                {"drops_by_cause": {"no-route": 1}},
                {"drops_by_cause": {"no-route": 2, "hop-limit": 1}},
            ]
        )
        assert totals["drops_by_cause.no-route"] == 3.0
        assert totals["drops_by_cause.hop-limit"] == 1.0

    def test_bools_are_not_counts(self):
        assert merge_counts([{"terminated": True}]) == {}
