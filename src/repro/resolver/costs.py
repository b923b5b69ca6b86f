"""The resolver CPU cost model, calibrated to the paper's measurements.

The simulator charges CPU time for protocol work so the paper's
CPU-bound behaviour reappears. Constants are calibrated against the
numbers the paper reports for its Java implementation on a Pentium II
450 MHz (Section 5); EXPERIMENTS.md discusses the calibration:

- Figure 8 saturates the CPU near 13k names refreshed every 15 s, i.e.
  about 870 names/s of update processing -> ~1.15 ms per name.
- Figure 15's remote same-vspace case is ~9.8 ms per packet of pure
  lookup-and-forward; the local case grows from 3.1 ms (250 names) to
  19 ms (5000 names) because the end-application delivery code of their
  implementation "happens to vary linearly with the number of names" —
  we reproduce that artifact deliberately, with a switch to turn it off.
- Figure 15's cross-vspace case is ~3.8 ms per packet: no local lookup,
  just forwarding toward the cached vspace resolver.
- Figure 14's discovery slope is < 10 ms/hop = lookup + graft + update
  processing + one-way link delay.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """CPU seconds charged for each resolver operation.

    All values model the paper's reference hardware; scale a node's
    ``cpu_speed`` to model faster machines instead of editing these.
    """

    #: Processing one name in an inter-INR update (lookup the
    #: AnnouncerID, refresh or graft, bookkeeping). Fig. 8 calibration.
    update_per_name: float = 1.15e-3

    #: One LOOKUP-NAME invocation on a name-tree. Fig. 12 reports
    #: 700-900 lookups/s for the measured tree shapes.
    lookup: float = 1.2e-3

    #: Grafting a newly discovered name into the tree (Fig. 14's Tg).
    graft: float = 2.0e-3

    #: Tunnelling a packet to a next-hop INR or a remote end-node
    #: (socket and header work, no delivery code). Fig. 15 remote case:
    #: lookup + forward ~ 9.8 ms.
    forward: float = 8.6e-3

    #: Fixed part of delivering to a directly-attached application.
    local_delivery_base: float = 1.1e-3

    #: The paper's delivery-code artifact: per-name linear term in local
    #: delivery. Fit to Fig. 15's local curve (3.1 ms at 250 names,
    #: 19 ms at 5000).
    local_delivery_per_name: float = 3.35e-6

    #: Forwarding a packet for a vspace this INR does not route: no
    #: lookup, just a cache hit and a send. Fig. 15 cross-vspace case.
    vspace_forward: float = 3.8e-3

    #: Handling an INR-ping (parse the small probe name, respond).
    ping: float = 0.5e-3

    #: Serving a name-discovery or early-binding request (lookup plus
    #: response construction); response size also charges the link.
    query: float = 1.5e-3

    #: Receiving any datagram (socket read, header decode).
    receive: float = 0.1e-3

    def update_batch(self, name_count: int) -> float:
        """Cost of processing an update batch of ``name_count`` names."""
        return self.receive + self.update_per_name * name_count

    def local_delivery(self, names_in_vspace: int) -> float:
        """Cost of handing a packet to a directly-attached application."""
        return self.local_delivery_base + self.local_delivery_per_name * names_in_vspace


#: The model used unless an experiment overrides it.
DEFAULT_COSTS = CostModel()


# What each message type costs to receive. ``rule(inr, payload)`` is the
# second element of a dispatch-table entry: the CPU seconds charged
# before the handler runs.
def cost_receive(inr, payload: object) -> float:
    return inr.costs.receive


def cost_one_name(inr, payload: object) -> float:
    return inr.costs.update_batch(1)


def cost_per_record(inr, payload: object) -> float:
    # A delegation chunk costs what installing its names costs.
    return inr.costs.update_batch(len(payload.records))


def cost_update_batch(inr, payload: object) -> float:
    return inr.costs.update_batch(len(payload.updates))


def cost_query(inr, payload: object) -> float:
    return inr.costs.query


def cost_ping(inr, payload: object) -> float:
    return inr.costs.ping


def cost_of_carried(inr, frame: object) -> float:
    """A reliable frame is charged for the update it carries."""
    return inr.processing_cost(frame.inner, 0)
