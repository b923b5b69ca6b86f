"""What one early-binding request costs the simulator, by count.

A ``resolve_early`` from an attached client on a quiet domain is two
datagrams. It schedules three heap entries — the request's arrival, the
client's timeout and the reply's arrival — and fires four events: each
arrival's handler (the resolver's costed query job, the client's free
one) completes in place inside the arrival, because nothing else is due
by the time it finishes. Each send finds its link and its FIFO clamp in
one ``_paths`` probe, and the resolver walks its trees only inside the
lookup.

Counts only — no wall clock. The timing claim lives in EXPERIMENTS.md.
"""

from repro.experiments import InsDomain
from repro.netsim import ARGS, CALLBACK, TIME, Network, Simulator

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
    """Every event scheduled from now on, as ``(callback name, event)``:
    the name is taken at once, for cancelling clears the callback."""
    scheduled = []
    real_at = Simulator.at

    def at_counted(sim, time, callback, *args):
        event = real_at(sim, time, callback, *args)
        scheduled.append((callback.__qualname__, event))
        return event

    monkeypatch.setattr(Simulator, "at", at_counted)
    return scheduled


def _step_until_settled(sim, reply, limit=20):
    steps = 0
    while not reply.settled:
        assert sim.step() and steps < limit
        steps += 1
    return steps


def test_one_request_is_three_heap_entries_and_four_events(monkeypatch):
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
    jobs = (inr.node.cpu.jobs_executed, client.node.cpu.jobs_executed)
    lookups = inr.stats.lookups

    reply = client.resolve_early(parse("[service=camera]"))
    steps = _step_until_settled(sim, reply)

    assert len(reply.value) == 1
    assert inr.stats.lookups == lookups + 1
    assert [name for name, _ in scheduled] == [
        "Network._deliver",              # the request, on its way
        "InsClient._on_request_timeout",
        "Network._deliver",              # the reply, on its way
    ]
    # Each handler ran inside its datagram's arrival, and counted: the
    # resolver's query job at its completion, the client's at once.
    assert sim.events_processed == events + 4
    assert steps == 2
    assert (inr.node.cpu.jobs_executed, client.node.cpu.jobs_executed) == (
        jobs[0] + 1, jobs[1] + 1
    )
    assert scheduled[1][1][CALLBACK] is None  # the timeout, cancelled
    # Two sends: one probe each, no link looked up, no record written.
    assert (paths.probes, paths.writes, paths.walks) == (2, 0, 0)
    assert link_lookups == []
    # The resolver found the vspace's tree by key and walked nothing.
    assert (trees.probes, trees.writes, trees.walks) == (1, 0, 0)


def test_a_request_arriving_with_an_entry_due_before_its_finish_is_scheduled(
    monkeypatch,
):
    domain, inr, client = _quiet_domain()
    sim = domain.sim
    scheduled = _count_scheduling(monkeypatch)
    order = []
    lookups = inr.stats.lookups
    reply = client.resolve_early(parse("[service=camera]"))
    (arrival,) = [event for name, event in scheduled if name == "Network._deliver"]
    _, _, payload, _, size = arrival[ARGS]
    finish = arrival[TIME] + inr.processing_cost(payload, size)
    # Due while the resolver's CPU works on the query.
    sim.at((arrival[TIME] + finish) / 2, order.append, "something else")

    assert sim.step()  # the arrival: the query job must wait its turn
    assert inr.stats.lookups == lookups and sim.now == arrival[TIME]
    name, job = scheduled[-1]
    assert name == "INR.handle_message" and job[TIME] == finish
    assert sim.step() and order == ["something else"]
    assert sim.step() and inr.stats.lookups == lookups + 1 and sim.now == finish
    _step_until_settled(sim, reply)
    assert len(reply.value) == 1


def test_a_reply_arriving_with_something_else_due_is_scheduled(monkeypatch):
    domain, inr, client = _quiet_domain()
    sim = domain.sim
    scheduled = _count_scheduling(monkeypatch)
    order = []
    reply = client.resolve_early(parse("[service=camera]"))
    reply.then(lambda bindings: order.append("reply"))
    assert sim.step()  # the request arrives; the resolver answers in place
    name, arrival = scheduled[-1]
    assert name == "Network._deliver"
    events = sim.events_processed
    # Due at the very instant of the arrival, and queued behind it:
    # pushed now, the client's handler would sort after this entry.
    sim.at(arrival[TIME], order.append, "something else")

    assert sim.step()  # the arrival: the handler must wait its turn
    assert not reply.settled and order == []
    name, handler = scheduled[-1]
    assert name == "InsClient.handle_message"
    assert handler[TIME] == arrival[TIME]  # the same instant, bit for bit
    assert sim.step() and sim.step()
    assert order == ["something else", "reply"]
    assert sim.events_processed == events + 3
    assert len(scheduled) == 5  # the usual three, the marker, the handler
