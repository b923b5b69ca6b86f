"""What one early-binding request costs the simulator, by count.

A ``resolve_early`` from an attached client on a quiet domain is two
datagrams. It schedules four heap entries — the request's arrival, the
resolver's CPU job, the reply's arrival and the client's timeout — and
fires four events, the last of them (the client's handler: zero cost,
idle CPU, nothing else due) in place rather than through the heap. Each
send finds its link and its FIFO clamp in one ``_paths`` probe, and the
resolver walks its trees only inside the lookup.

Counts only — no wall clock. The timing claim lives in EXPERIMENTS.md.
"""

from repro.experiments import InsDomain
from repro.netsim import Network, Simulator

from ..conftest import CountingDict, parse


def _quiet_domain():
    domain = InsDomain(seed=1500)
    inr = domain.add_inr(address="inr-a")
    domain.add_service("[service=camera[id=c1]][room=510]", resolver=inr)
    client = domain.add_client(resolver=inr)
    domain.run(2.0)
    # The first request fills the two path records (and the lookup memo).
    warm = client.resolve_early(parse("[service=camera]"))
    domain.run(0.5)
    assert len(warm.value) == 1
    return domain, inr, client


def _count_scheduling(monkeypatch):
    scheduled = []
    real_at = Simulator.at

    def at_counted(sim, time, callback, *args):
        event = real_at(sim, time, callback, *args)
        scheduled.append(event)
        return event

    monkeypatch.setattr(Simulator, "at", at_counted)
    return scheduled


def _step_until_settled(sim, reply, limit=20):
    steps = 0
    while not reply.settled:
        assert sim.step() and steps < limit
        steps += 1
    return steps


def test_one_request_is_four_heap_entries_and_four_events(monkeypatch):
    domain, inr, client = _quiet_domain()
    sim, network = domain.sim, domain.network
    scheduled = _count_scheduling(monkeypatch)
    link_lookups = []
    for name in ("link", "configure_link", "_link_key"):
        real = getattr(Network, name)
        monkeypatch.setattr(
            Network, name,
            lambda *args, _real=real, _name=name, **kwargs: (
                link_lookups.append(_name), _real(*args, **kwargs)
            )[1],
        )
    network._paths = paths = CountingDict(network._paths)
    inr.trees = trees = CountingDict(inr.trees)
    events = sim.events_processed
    jobs = client.node.cpu.jobs_executed
    lookups = inr.stats.lookups

    reply = client.resolve_early(parse("[service=camera]"))
    steps = _step_until_settled(sim, reply)

    assert len(reply.value) == 1
    assert inr.stats.lookups == lookups + 1
    assert [event.callback.__qualname__ for event in scheduled] == [
        "Network._deliver",              # the request, on its way
        "InsClient._on_request_timeout",
        "INR.handle_message",            # queued behind the query's CPU cost
        "Network._deliver",              # the reply, on its way
    ]
    # The client's handler ran inside the reply's arrival, and counted.
    assert sim.events_processed == events + 4
    assert steps == 3
    assert client.node.cpu.jobs_executed == jobs + 1
    assert scheduled[1].cancelled
    # Two sends: one probe each, no link looked up, no record written.
    assert (paths.probes, paths.writes, paths.walks) == (2, 0, 0)
    assert link_lookups == []
    # The resolver found the vspace's tree by key and walked nothing.
    assert (trees.probes, trees.writes, trees.walks) == (1, 0, 0)


def test_a_reply_arriving_with_something_else_due_is_scheduled(monkeypatch):
    domain, inr, client = _quiet_domain()
    sim = domain.sim
    scheduled = _count_scheduling(monkeypatch)
    order = []
    reply = client.resolve_early(parse("[service=camera]"))
    reply.then(lambda bindings: order.append("reply"))
    assert sim.step() and sim.step()  # request arrives; the resolver answers
    arrival = scheduled[-1]
    assert arrival.callback.__qualname__ == "Network._deliver"
    events = sim.events_processed
    # Due at the very instant of the arrival, and queued behind it:
    # pushed now, the client's handler would sort after this entry.
    sim.at(arrival.time, order.append, "something else")

    assert sim.step()  # the arrival: the handler must wait its turn
    assert not reply.settled and order == []
    assert scheduled[-1].callback.__qualname__ == "InsClient.handle_message"
    assert scheduled[-1].time == arrival.time  # the same instant, bit for bit
    assert sim.step() and sim.step()
    assert order == ["something else", "reply"]
    assert sim.events_processed == events + 3
    assert len(scheduled) == 6  # the usual four, the marker, the handler
