"""A NaN time, delay, size, rate or cost is refused where it enters.

NaN fails every comparison, so a guard written ``if x < 0: raise``
lets it through. On the heap it breaks the order everything else relies
on: ``step()`` fired 0.5 / NaN / 1.0 as ``b, nan, a`` (``now`` ran
backwards), and ``run(until=...)`` with a NaN at the head never
returned — its batch loop pops while ``queue[0][0] == batch_time``,
which NaN never is. None of the calls below runs the simulator, so
none of them can hang on a build that accepts NaN: each just fails.
"""

import pytest

from repro.netsim import Cpu, Link, Network, PeriodicTimer, Process, Simulator

NAN = float("nan")


def _nothing():
    pass


def _network():
    sim = Simulator()
    network = Network(sim)
    network.add_node("a")
    network.add_node("b")
    return sim, network


REFUSALS = {
    "Simulator.at": lambda sim, net: sim.at(NAN, _nothing),
    "Simulator.schedule": lambda sim, net: sim.schedule(NAN, _nothing),
    "Process.set_timer": lambda sim, net: Process(net.node("a"), 1).set_timer(
        NAN, _nothing
    ),
    "PeriodicTimer(interval)": lambda sim, net: PeriodicTimer(sim, NAN, _nothing),
    "Link(latency)": lambda sim, net: Link(latency=NAN, bandwidth_bps=1e6),
    "Link(bandwidth_bps)": lambda sim, net: Link(latency=0.001, bandwidth_bps=NAN),
    "Link(reorder_delay)": lambda sim, net: Link(0.001, 1e6, reorder_delay=NAN),
    "Network.configure_link(latency)": lambda sim, net: net.configure_link(
        "a", "b", latency=NAN
    ),
    "Network.configure_link(bandwidth_bps)": lambda sim, net: net.configure_link(
        "a", "b", bandwidth_bps=NAN
    ),
    "Network.configure_link(reorder_delay)": lambda sim, net: net.configure_link(
        "a", "b", reorder_delay=NAN
    ),
    "Network.send(size_bytes)": lambda sim, net: net.send("a", "b", 1, "x", NAN),
    "Cpu(speed)": lambda sim, net: Cpu(sim, speed=NAN),
    "Cpu.execute(cost)": lambda sim, net: Cpu(sim).execute(NAN, _nothing),
}


@pytest.mark.parametrize("call", sorted(REFUSALS))
def test_nan_is_refused_and_nothing_is_queued(call):
    sim, network = _network()
    with pytest.raises(ValueError):
        REFUSALS[call](sim, network)
    assert sim.pending_events == 0
