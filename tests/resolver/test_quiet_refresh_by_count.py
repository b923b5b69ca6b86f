"""What a quiet soft-state refresh costs, by count.

In a settled domain where nothing changes, a service re-sends the
``Advertisement`` it sent last and an INR the ``NameUpdate`` it kept,
and the receiver has applied each of them before. Recognising one is a
single ``_by_announcer`` probe (``record_for``) and ``NameTree.rehear``:
no ``NameTree.refresh``, no ``NameRecord`` or ``Route`` built. A
service refresh is three events: its timer, the datagram's arrival and
the resolver's CPU job.

Counts only — no wall clock. The timing claim lives in EXPERIMENTS.md.
"""

import repro.nametree.tree as tree_module
import repro.resolver.discovery as discovery_module
from repro.client import Service
from repro.experiments import InsDomain
from repro.nametree import NameTree
from repro.netsim import ARGS, CALLBACK, Network, PeriodicTimer
from repro.resolver import INR, InrConfig
from repro.resolver.protocol import Advertisement

from ..conftest import CountingDict
from .test_update_retention import _count_calls, _count_constructions

REFRESH = 5.0


def _settled_domain():
    """Three INRs, six services; three rounds in, every record was last
    written from the message that will be heard again."""
    domain = InsDomain(
        seed=1200,
        config=InrConfig(refresh_interval=REFRESH, record_lifetime=3 * REFRESH),
    )
    inrs = [domain.add_inr(address=f"inr-{x}") for x in "abc"]
    services = [
        domain.add_service(
            f"[service=e[id=n{index}]][room=r{index}]", resolver=inr,
            refresh_interval=REFRESH, lifetime=3 * REFRESH,
        )
        for index, inr in enumerate(inrs * 2)
    ]
    domain.run(REFRESH * 3.2)
    assert [inr.name_count() for inr in inrs] == [6, 6, 6]
    return domain, inrs, services


def _heard(inrs):
    return (
        sum(inr.stats.advertisements_processed for inr in inrs),
        sum(inr.stats.update_names_processed for inr in inrs),
    )


def test_each_name_heard_again_is_one_probe_and_builds_nothing(monkeypatch):
    domain, inrs, _ = _settled_domain()
    tables = []
    for inr in inrs:
        for tree in inr.trees.values():
            tree._by_announcer = table = CountingDict(tree._by_announcer)
            tables.append(table)
    refreshes = _count_calls(monkeypatch, NameTree, "refresh")
    built = (
        _count_constructions(monkeypatch, discovery_module, "NameRecord")
        # every Route is built by NameTree.route
        + _count_constructions(monkeypatch, tree_module, "Route")
    )
    triggered = sum(inr.stats.triggered_updates_sent for inr in inrs)
    before = _heard(inrs)

    domain.run(REFRESH)

    ads, names = (after - then for after, then in zip(_heard(inrs), before))
    # The round happened: every service refreshed, every INR sent its
    # table to each neighbor (less what that neighbor is the route of).
    assert ads >= 6 and names >= 12
    assert sum(table.probes for table in tables) == ads + names
    assert sum(table.writes for table in tables) == 0
    assert refreshes == [] and built == []
    assert sum(inr.stats.triggered_updates_sent for inr in inrs) == triggered


def test_a_service_refresh_is_three_events():
    domain, inrs, services = _settled_domain()
    sim = domain.sim
    fired = []
    sim.event_hook = fired.append
    sent = sum(service.advertisements_sent for service in services)

    domain.run(REFRESH)

    refreshes = sum(service.advertisements_sent for service in services) - sent
    assert refreshes >= len(services)
    timers, arrivals, jobs = [], [], []
    for event in fired:
        callback, args = event[CALLBACK], event[ARGS]
        owner = getattr(callback, "__self__", None)
        function = getattr(callback, "__func__", None)
        if isinstance(owner, PeriodicTimer):
            if getattr(owner._callback, "__self__", None) in services:
                timers.append(event)
        elif function is Network._deliver and type(args[2]) is Advertisement:
            arrivals.append(event)
        elif function is INR.handle_message and type(args[0]) is Advertisement:
            jobs.append(event)
        else:
            # nothing else the round fires carries or was caused by one
            assert not any(type(arg) is Advertisement for arg in args)
            assert not isinstance(owner, Service)
    assert len(timers) == len(arrivals) == len(jobs) == refreshes
