"""Tests for the stats walker and the metrics a collector files."""

import json
from types import SimpleNamespace

from repro.obs import ObsCollector, stats_fields
from repro.obs.metrics import label_text
from repro.xp.experiments import summed_counters

from ..conftest import parse
from ..integration.test_obs_smoke import build_observed_domain


def _stats(snapshot):
    return SimpleNamespace(snapshot=lambda: dict(snapshot))


def fake_inr(address, snapshot, names):
    """An INR as ``harvest_domain`` reads one: stats and name counts."""
    return SimpleNamespace(
        address=address, stats=_stats(snapshot), trees=dict.fromkeys(names),
        name_count=names.__getitem__,
    )


def fake_domain(inrs=(), clients=(), links=()):
    return SimpleNamespace(
        inrs=list(inrs), clients=list(clients), network=SimpleNamespace(links=tuple(links)),
    )


def harvested(domain) -> dict:
    collector = ObsCollector(clock=lambda: 0.0)
    collector.harvest_domain(domain)
    return collector.metrics_snapshot()


class TestCounter:
    def test_counts_per_label_set(self):
        # two INR objects at one address (a node spawned onto again)
        # sum under one label
        snap = harvested(fake_domain(inrs=[
            fake_inr("inr-1", {"lookups": 2}, {}),
            fake_inr("inr-2", {"lookups": 1}, {}),
            fake_inr("inr-1", {"lookups": 3}, {}),
        ]))
        assert snap["counters"]["inr.lookups"] == {"inr=inr-1": 5.0, "inr=inr-2": 1.0}

    def test_label_order_is_canonical(self):
        assert label_text(b="2", a="1") == "a=1,b=2"
        assert label_text(vspace="default", inr="inr-1") == "inr=inr-1,vspace=default"

    def test_unlabelled_series(self):
        assert label_text() == ""


class TestGauge:
    def test_set_overwrites(self):
        # two INRs at one address: the name gauge keeps the last one's
        snap = harvested(fake_domain(inrs=[
            fake_inr("inr-1", {}, {"default": 4, "other": 1}),
            fake_inr("inr-1", {}, {"default": 7}),
        ]))
        assert snap["gauges"] == {"inr.names": {
            "inr=inr-1,vspace=default": 7.0, "inr=inr-1,vspace=other": 1.0,
        }}


class TestRegistry:
    """The families a harvest files, and the snapshot that holds them."""

    def test_ingest_maps_snapshot_fields_to_labelled_counters(self):
        link = SimpleNamespace(stats=_stats({"messages": 6, "bytes": 900}))
        client = SimpleNamespace(address="c-1", port=7, stats=_stats({"retries": 2}))
        snap = harvested(fake_domain(
            inrs=[fake_inr("inr-1", {
                "packets_forwarded": 3,
                "drops_by_cause": {"no-route": 2, "hop-limit": 1},
                "terminated": True,  # bool: configuration, not a count
                "address": "inr-1",  # non-numeric: skipped
            }, {})],
            clients=[client],
            links=[(("a", "b"), link)],
        ))
        counters = snap["counters"]
        assert counters["inr.packets_forwarded"] == {"inr=inr-1": 3.0}
        assert counters["inr.drops_by_cause"] == {
            "cause=hop-limit,inr=inr-1": 1.0,
            "cause=no-route,inr=inr-1": 2.0,
        }
        assert "inr.terminated" not in counters and "inr.address" not in counters
        assert counters["client.retries"] == {"client=c-1:7": 2.0}
        assert counters["link.messages"] == {"link=a|b": 6.0}
        assert counters["link.bytes"] == {"link=a|b": 900.0}

    def test_snapshot_groups_by_kind(self):
        snap = harvested(fake_domain(inrs=[fake_inr("inr-1", {"lookups": 1}, {"default": 2})]))
        # no metric is a histogram; the committed snapshots keep the group
        assert snap == {
            "counters": {"inr.lookups": {"inr=inr-1": 1.0}},
            "gauges": {"inr.names": {"inr=inr-1,vspace=default": 2.0}},
            "histograms": {},
        }
        assert all(
            type(value) is float
            for group in ("counters", "gauges")
            for family in snap[group].values()
            for value in family.values()
        )

    def test_to_json_is_deterministic(self):
        def run() -> str:
            domain, _collector, client, _service = build_observed_domain(seed=7)
            client.resolve_early(parse("[service=cam]"))
            client.send_anycast(parse("[service=nobody]"), b"lost")
            domain.run(1.0)
            return json.dumps(domain.harvest().metrics_snapshot(), sort_keys=True)

        assert run() == run()

    def test_events_family_exists_before_any_event(self):
        collector = ObsCollector(clock=lambda: 0.0)
        sim = SimpleNamespace(event_hook=None)
        collector.profile_simulator(sim)
        assert collector.metrics_snapshot()["counters"] == {"sim.events": {}}
        collector.harvest_domain(fake_domain())
        assert collector.metrics_snapshot()["counters"] == {"sim.events": {}}
        sim.event_hook([0.0, 0, collector.harvest_domain, ()])
        assert collector.metrics_snapshot()["counters"] == {
            "sim.events": {"callback=ObsCollector.harvest_domain": 1.0}
        }

    def test_harvesting_twice_files_the_same_numbers(self):
        domain, _collector, client, _service = build_observed_domain(seed=3)
        client.resolve_early(parse("[service=cam]"))
        domain.run(1.0)
        first = domain.harvest().metrics_snapshot()
        sent = first["counters"]["client.requests_sent"]
        assert sent == {f"client={client.address}:{client.port}": 1.0}
        assert domain.harvest().metrics_snapshot() == first
        # the simulator profile keeps counting across harvests
        domain.run(1.0)
        again = domain.harvest().metrics_snapshot()
        assert again["counters"]["client.requests_sent"] == sent
        assert sum(again["counters"]["sim.events"].values()) > sum(
            first["counters"]["sim.events"].values()
        )


class TestMergeCounts:
    """Counts merged across snapshots: the walker, and the chaos
    reports' ``summed_counters`` over it."""

    def test_sums_numeric_fields_across_snapshots(self):
        processes = [
            SimpleNamespace(stats=_stats({"retries": 2, "failovers": 1, "resolver": "inr-1"})),
            SimpleNamespace(stats=_stats({"retries": 3, "failovers": 0, "resolver": "inr-2"})),
        ]
        assert summed_counters(processes, "retries", "failovers", "resolver", "absent") == {
            "retries": 5, "failovers": 1, "resolver": 0, "absent": 0,
        }

    def test_nested_mappings_sum_per_inner_key(self):
        snap = harvested(fake_domain(inrs=[
            fake_inr("inr-1", {"drops_by_cause": {"no-route": 1}}, {}),
            fake_inr("inr-1", {"drops_by_cause": {"no-route": 2, "hop-limit": 1}}, {}),
        ]))
        assert snap["counters"]["inr.drops_by_cause"] == {
            "cause=hop-limit,inr=inr-1": 1.0, "cause=no-route,inr=inr-1": 3.0,
        }
        # the walker yields one entry per inner key
        assert list(stats_fields({"lookups": 2, "drops_by_cause": {"a": 1, "b": 4}})) == [
            ("lookups", None, 2.0), ("drops_by_cause", "a", 1.0), ("drops_by_cause", "b", 4.0),
        ]

    def test_bools_are_not_counts(self):
        assert list(stats_fields({"terminated": True, "by": {"x": False}, "name": "n"})) == []
