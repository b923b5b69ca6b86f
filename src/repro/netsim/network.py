"""Simulated nodes, links and datagram delivery.

The network models exactly what INS relies on from the real world:
unicast IP datagrams (Section 1: "the only network layer service that we
rely upon is IP unicast"). Each pair of nodes communicates over a link
with latency, bandwidth and an optional loss rate; each node owns a
serial CPU (see :mod:`.cpu`) through which all received messages pass,
and demultiplexes messages to processes by port.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from .cpu import Cpu
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .process import Process


@dataclass
class LinkStats:
    """Cumulative traffic counters for one link."""

    messages: int = 0
    bytes: int = 0
    drops: int = 0
    duplicates: int = 0
    reorders: int = 0

    def snapshot(self) -> dict:
        """Every counter in declaration order — the uniform shape the
        metrics registry ingests and artifacts embed."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Link:
    """A symmetric point-to-point channel between two nodes."""

    __slots__ = (
        "latency",
        "bandwidth_bps",
        "loss_rate",
        "duplicate_rate",
        "reorder_rate",
        "reorder_delay",
        "up",
        "stats",
    )

    def __init__(
        self,
        latency: float,
        bandwidth_bps: float,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_delay: float = 0.05,
    ) -> None:
        if not latency >= 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if not bandwidth_bps > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        for label, rate in (("loss", loss_rate), ("duplicate", duplicate_rate),
                            ("reorder", reorder_rate)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} rate must be in [0, 1), got {rate}")
        if not reorder_delay >= 0:
            raise ValueError(f"reorder delay must be non-negative, got {reorder_delay}")
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        #: Probability a datagram is delivered twice (duplicated in
        #: flight, e.g. by a link-layer retransmission whose ack died).
        self.duplicate_rate = duplicate_rate
        #: Probability a datagram is held back so later traffic on the
        #: same direction overtakes it (multi-path reordering).
        self.reorder_rate = reorder_rate
        #: Maximum extra holding time of a reordered datagram.
        self.reorder_delay = reorder_delay
        #: False models a partition: every datagram on the link is lost.
        self.up = True
        self.stats = LinkStats()

    def transfer_delay(self, size_bytes: int) -> float:
        """Propagation plus transmission delay for ``size_bytes``."""
        return self.latency + (size_bytes * 8.0) / self.bandwidth_bps

    def __repr__(self) -> str:
        return (
            f"Link(latency={self.latency * 1000:.1f}ms, "
            f"bandwidth={self.bandwidth_bps / 1e6:.2f}Mbps, "
            f"loss={self.loss_rate:.3f})"
        )


class Node:
    """A host: an address, a serial CPU and port-bound processes."""

    def __init__(self, network: "Network", address: str, cpu_speed: float = 1.0) -> None:
        self.network = network
        self.address = address
        self.cpu = Cpu(network.sim, speed=cpu_speed)
        self._ports: Dict[int, "Process"] = {}

    def bind(self, port: int, process: "Process") -> None:
        """Attach ``process`` to ``port``; one process per port."""
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.address}")
        self._ports[port] = process

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def process_on(self, port: int) -> Optional["Process"]:
        return self._ports.get(port)

    @property
    def processes(self) -> Tuple["Process", ...]:
        return tuple(self._ports.values())

    def __repr__(self) -> str:
        return f"Node({self.address}, ports={sorted(self._ports)})"


class Network:
    """The datagram fabric connecting simulated nodes.

    Links are created lazily with the network-wide defaults and can be
    overridden per pair with :meth:`configure_link`. Delivery applies
    link loss, latency + transmission delay, then the receiving node's
    CPU cost before the handler runs — the same path every INS message
    takes in the paper's implementation (NodeListener then processing).
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency: float = 0.002,
        default_bandwidth_bps: float = 1_000_000.0,
        default_loss_rate: float = 0.0,
    ) -> None:
        self.sim = sim
        self.default_latency = default_latency
        self.default_bandwidth_bps = default_bandwidth_bps
        self.default_loss_rate = default_loss_rate
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: (source, destination) -> [link, last arrival]: what one send
        #: needs, found in one probe. The arrival time enforces FIFO
        #: order per direction (a small datagram must not overtake a
        #: large one sent earlier). Links are only ever mutated in
        #: place, so a record filled on first use never goes stale.
        self._paths: Dict[Tuple[str, str], List[Any]] = {}
        #: datagrams addressed to hosts that do not exist (e.g. a node
        #: that moved away); they vanish silently like real UDP.
        self.undeliverable = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, address: str, cpu_speed: float = 1.0) -> Node:
        if address in self._nodes:
            raise ValueError(f"node {address!r} already exists")
        node = Node(self, address, cpu_speed=cpu_speed)
        self._nodes[address] = node
        return node

    def node(self, address: str) -> Node:
        return self._nodes[address]

    def has_node(self, address: str) -> bool:
        return address in self._nodes

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes.values())

    def rename_node(self, old_address: str, new_address: str) -> Node:
        """Move a node to a new network location (node mobility).

        Datagrams already in flight to the old address are lost, exactly
        as they would be for a host that changed IP address.
        """
        if new_address in self._nodes:
            raise ValueError(f"node {new_address!r} already exists")
        node = self._nodes.pop(old_address)
        node.address = new_address
        self._nodes[new_address] = node
        return node

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def configure_link(
        self,
        a: str,
        b: str,
        latency: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
        loss_rate: Optional[float] = None,
        duplicate_rate: Optional[float] = None,
        reorder_rate: Optional[float] = None,
        reorder_delay: Optional[float] = None,
    ) -> Link:
        """Create or update the link between ``a`` and ``b``."""
        # Updates bypass Link.__init__, so validate up front (before any
        # mutation): a zero bandwidth would divide by zero in the next
        # send, a negative latency be clamped away by the FIFO rule, and
        # a rate of 1.0 turn the RNG draw into an unconditional branch.
        if latency is not None and not latency >= 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if bandwidth_bps is not None and not bandwidth_bps > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        for label, rate in (("loss", loss_rate), ("duplicate", duplicate_rate),
                            ("reorder", reorder_rate)):
            if rate is not None and not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} rate must be in [0, 1), got {rate}")
        if reorder_delay is not None and not reorder_delay >= 0:
            raise ValueError(
                f"reorder delay must be non-negative, got {reorder_delay}"
            )
        key = self._link_key(a, b)
        link = self._links.get(key)
        if link is None:
            link = Link(
                latency if latency is not None else self.default_latency,
                bandwidth_bps if bandwidth_bps is not None else self.default_bandwidth_bps,
                loss_rate if loss_rate is not None else self.default_loss_rate,
            )
            self._links[key] = link
        else:
            if latency is not None:
                link.latency = latency
            if bandwidth_bps is not None:
                link.bandwidth_bps = bandwidth_bps
            if loss_rate is not None:
                link.loss_rate = loss_rate
        if duplicate_rate is not None:
            link.duplicate_rate = duplicate_rate
        if reorder_rate is not None:
            link.reorder_rate = reorder_rate
        if reorder_delay is not None:
            link.reorder_delay = reorder_delay
        return link

    def link(self, a: str, b: str) -> Link:
        """The link between ``a`` and ``b``, created lazily."""
        key = self._link_key(a, b)
        link = self._links.get(key)
        if link is None:
            link = self.configure_link(a, b)
        return link

    @property
    def links(self) -> Tuple[Tuple[Tuple[str, str], Link], ...]:
        """Every instantiated link with its (sorted) endpoint pair."""
        return tuple(self._links.items())

    def partition(self, side_a, side_b) -> None:
        """Cut every link between the two groups of addresses."""
        for a in side_a:
            for b in side_b:
                self.link(a, b).up = False

    def heal(self, side_a, side_b) -> None:
        """Restore every link between the two groups of addresses."""
        for a in side_a:
            for b in side_b:
                self.link(a, b).up = True

    # ------------------------------------------------------------------
    # Datagram delivery
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        destination: str,
        port: int,
        payload: Any,
        size_bytes: int,
    ) -> None:
        """Send a datagram; best-effort, like UDP.

        Local delivery (source == destination) skips the link but still
        pays the receiver's CPU cost.
        """
        if not size_bytes >= 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        if source == destination:
            self.sim.schedule(
                0.0, self._deliver, destination, port, payload, source, size_bytes
            )
            return
        path = self._paths.get((source, destination))
        if path is None:
            path = self._paths[(source, destination)] = [
                self.link(source, destination), 0.0
            ]
        link = path[0]
        stats = link.stats
        stats.messages += 1
        stats.bytes += size_bytes
        if not link.up:
            stats.drops += 1
            return
        sim = self.sim
        if link.loss_rate > 0 and sim.rng.random() < link.loss_rate:
            stats.drops += 1
            return
        # Link.transfer_delay, inline: one frame fewer on every send
        arrival = sim.now + (link.latency + (size_bytes * 8.0) / link.bandwidth_bps)
        if link.reorder_rate > 0 and sim.rng.random() < link.reorder_rate:
            # Reordering: hold this datagram back without advancing the
            # direction's FIFO clamp, so traffic sent later overtakes it.
            stats.reorders += 1
            held = arrival + sim.rng.uniform(0.0, link.reorder_delay)
            sim.at(held, self._deliver, destination, port, payload, source, size_bytes)
            return
        # FIFO per direction: arrival times on one path never decrease,
        # so a short datagram cannot overtake a long one sent earlier.
        if arrival < path[1]:
            arrival = path[1]
        else:
            path[1] = arrival
        sim.at(arrival, self._deliver, destination, port, payload, source, size_bytes)
        if link.duplicate_rate > 0 and sim.rng.random() < link.duplicate_rate:
            # Duplication: a second copy arrives one transmission later,
            # as if a link-layer retransmission fired despite delivery.
            stats.duplicates += 1
            sim.at(
                arrival + link.transfer_delay(size_bytes) - link.latency,
                self._deliver, destination, port, payload, source, size_bytes,
            )

    def _deliver(
        self, destination: str, port: int, payload: Any, source: str, size_bytes: int
    ) -> None:
        node = self._nodes.get(destination)
        if node is None:
            self.undeliverable += 1
            return
        process = node._ports.get(port)
        if process is None:
            self.undeliverable += 1
            return
        if not process.admit(payload, source):
            # The door admits everything (see Process.admit); the call
            # stays because the whole-domain benchmark wraps INR.admit.
            return
        cost = process.processing_cost(payload, size_bytes)
        self.delivered += 1
        # The last act of this event: the handler's CPU job may complete
        # in place (see Cpu.execute_last).
        node.cpu.execute_last(cost, process.handle_message, payload, source)

    def __repr__(self) -> str:
        return f"Network(nodes={len(self._nodes)}, links={len(self._links)})"
