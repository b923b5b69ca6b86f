"""INS vs a DNS-style baseline under node mobility.

The paper's motivation for late binding: name-to-address mappings change
*during* sessions, so resolving early (DNS-style) hands applications
addresses that go stale. This experiment runs the identical workload —
one service, one client sending it a request every half second, the
service's host changing address mid-run — against three systems:

1. **INS** (intentional anycast, soft-state refresh),
2. **DNS + operator re-registration**: the record is fixed immediately
   after the move, but clients keep serving their cached answer until
   the TTL expires,
3. **DNS, never re-registered**: what actually happens to a statically
   configured mapping when a host moves.

Reported: messages delivered and the outage (time from the move to the
next successful delivery). The ``dns-mobility`` workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ...baselines import DnsClient, DnsDirectory, DnsRegisteredService
from ...client import MobilityManager
from ...experiments.domain import InsDomain
from ...naming import NameSpecifier
from ...netsim import Network, Simulator
from ...resolver import InrConfig
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload


@dataclass
class MobilityRow:
    """Outcome of the mobility scenario for one system."""

    system: str
    requests_sent: int
    delivered: int
    outage_seconds: float  # inf when service is never reached again


_REQUEST_INTERVAL = 0.5
_MOVE_AT = 20.0
_DURATION = 120.0


def _run_ins(seed: int) -> MobilityRow:
    domain = InsDomain(
        seed=seed, config=InrConfig(refresh_interval=3.0, record_lifetime=9.0)
    )
    inr = domain.add_inr()
    service = domain.add_service("[service=mob[id=1]]", resolver=inr,
                                 refresh_interval=3.0, lifetime=9.0)
    received: List[float] = []
    service.on_message(lambda m, s: received.append(domain.now))
    client = domain.add_client(resolver=inr)
    domain.run(1.0)

    name = NameSpecifier.parse("[service=mob]")
    sent = 0
    t = 0.0
    while t < _DURATION:
        domain.sim.schedule(t, client.send_anycast, name, b"req")
        sent += 1
        t += _REQUEST_INTERVAL
    move_time = domain.now + _MOVE_AT
    domain.sim.schedule(
        _MOVE_AT, lambda: MobilityManager(service.node).migrate("roamed-host")
    )
    domain.run(_DURATION + 10.0)
    return MobilityRow(
        system="INS (intentional anycast)",
        requests_sent=sent,
        delivered=len(received),
        outage_seconds=_outage(received, move_time),
    )


def _run_dns(seed: int, re_register: bool) -> MobilityRow:
    sim = Simulator(seed=seed)
    network = Network(sim)
    directory_node = network.add_node("dns-server")
    directory = DnsDirectory(directory_node, default_ttl=60.0)
    service_node = network.add_node("service-host")
    service = DnsRegisteredService(service_node, 7000, "printer.example",
                                   "dns-server", ttl=60.0)
    service.start()
    client_node = network.add_node("client-host")
    client = DnsClient(client_node, 7001, "dns-server")
    received: List[float] = []

    original_handle = service.handle_message

    def observing_handle(payload, source):
        original_handle(payload, source)
        received.append(sim.now)

    service.handle_message = observing_handle

    def one_request():
        def deliver(endpoint):
            if endpoint is not None:
                network.send(client.address, endpoint.host, endpoint.port,
                             b"req", 100)

        client.resolve("printer.example").then(deliver)

    sent = 0
    t = 1.0
    while t < 1.0 + _DURATION:
        sim.schedule(t, one_request)
        sent += 1
        t += _REQUEST_INTERVAL
    move_time = 1.0 + _MOVE_AT

    def move():
        network.rename_node("service-host", "roamed-host")
        if re_register:
            service.register()  # the operator fixes the DNS record

    sim.schedule(move_time, move)
    sim.run(until=1.0 + _DURATION + 10.0)
    label = (
        "DNS baseline (record fixed at move)"
        if re_register
        else "DNS baseline (never re-registered)"
    )
    return MobilityRow(
        system=label,
        requests_sent=sent,
        delivered=len(received),
        outage_seconds=_outage(received, move_time),
    )


def _outage(received: List[float], move_time: float) -> float:
    after = [t for t in received if t >= move_time]
    if not after:
        return math.inf
    before = [t for t in received if t < move_time]
    resume = min(after)
    last_good = max(before) if before else move_time
    return resume - last_good


#: The three systems, in the row order of :func:`run_mobility_comparison`.
SYSTEMS = ("ins", "dns_fixed", "dns_stale")


def run_mobility_comparison(seed: int) -> WorkloadResult:
    """The three systems under the identical mobility scenario."""
    rows = [
        _run_ins(seed),
        _run_dns(seed, re_register=True),
        _run_dns(seed, re_register=False),
    ]
    metrics = {}
    for system, row in zip(SYSTEMS, rows):
        metrics[f"requests_sent_{system}"] = float(row.requests_sent)
        metrics[f"delivered_{system}"] = float(row.delivered)
        # "Never recovers" is an infinite outage, which JSON cannot
        # carry: it is a 0 in ``recovered_*`` and no ``outage_s_*``.
        recovered = math.isfinite(row.outage_seconds)
        metrics[f"recovered_{system}"] = float(recovered)
        if recovered:
            metrics[f"outage_s_{system}"] = row.outage_seconds
    return WorkloadResult(metrics=metrics, details={"rows": rows})


def _mobility_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    return [(
        "Baseline: node mobility at t=20s, one request per 0.5s for 120s",
        ["system", "sent", "delivered", "outage after move (s)"],
        [
            (
                row.system,
                row.requests_sent,
                row.delivered,
                "never recovers" if math.isinf(row.outage_seconds)
                else f"{row.outage_seconds:.1f}",
            )
            for row in run.baseline.details["rows"]
        ],
    )]


register_workload(Workload(
    id="dns-mobility",
    description="INS late binding vs DNS-style early binding, host moving",
    run=run_mobility_comparison,
    suite_tables=_mobility_tables,
))
