"""Figure 15: processing and routing time per INR for a 100-packet burst.

The paper sends bursts of one hundred 586-byte messages (Camera
traffic, ~82-byte random source/destination names) and reports, per
INR, the time to process and route the burst in three placements:

- **local destination** — the receiver is attached to the same INR:
  3.1 ms/packet at 250 names growing to 19 ms/packet at 5000, partly
  lookup but mostly an end-application delivery code artifact that is
  linear in the number of names (reproduced deliberately by the cost
  model, and switchable off for the ablation);
- **remote destination, same vspace** — next-hop forwarding only:
  ~9.8 ms/packet, essentially flat in the name count;
- **remote destination, different vspace** — no local tree at all: a
  DSR query on first access, then cached next-hop forwarding at
  ~3.8 ms/packet, ~381 ms per burst regardless of name count.

The ``routing`` workload: its ``delivery_artifact`` arm turns the
artifact off, and its ``fig15-routing`` spec, with one traced burst,
writes ``BENCH_routing.json``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ...experiments.domain import InsDomain
from ...experiments.workload import UniformWorkload
from ...message import Binding, Delivery, InsMessage
from ...naming import NameSpecifier
from ...nametree import AnnouncerID, Endpoint, NameRecord, Route
from ...resolver import DataPacket, InrConfig
from ...resolver.costs import CostModel
from ...resolver.ports import INR_PORT
from ..runner import Output, SpecRun, Workload, WorkloadResult, register_workload

#: Bytes of application payload that make the whole packet ~586 bytes,
#: matching the paper's Camera messages.
_PAYLOAD_BYTES = 450

_BURST = 100


@dataclass
class RoutingRow:
    """One point of the Figure 15 curves (ms per 100-packet burst)."""

    names_in_vspace: int
    local_ms: float
    remote_same_vspace_ms: float
    remote_other_vspace_ms: float


def _destination_name(vspace: Optional[str]) -> NameSpecifier:
    spec = {"service": ("fig15", {"entity": "sink", "id": "dst"})}
    if vspace is not None:
        spec["vspace"] = vspace
    return NameSpecifier.from_dict(spec)


def _fill_tree(tree, count: int, seed: int) -> None:
    workload = UniformWorkload(
        rng=random.Random(seed),
        depth=2,
        attribute_range=4,
        value_range=4,
        attributes_per_level=2,
        token_pad=1,
    )
    workload.populate_tree(tree, count)


def _burst_makespan_ms(
    domain: InsDomain,
    inr,
    destination: NameSpecifier,
    source_name: NameSpecifier,
    tracer=None,
) -> float:
    """Send the burst straight at ``inr`` and measure how long its CPU
    takes to finish processing and routing it (the per-INR quantity the
    paper's figure reports).

    With a ``tracer``, every packet carries its own root span's trace
    context on the wire (24 extra bytes), so each one produces a
    per-INR hop-span chain downstream.
    """
    message = InsMessage(
        destination=destination,
        source=source_name,
        data=bytes(_PAYLOAD_BYTES),
        binding=Binding.LATE,
        delivery=Delivery.ANYCAST,
    )
    raw = message.encode()
    sender = domain.network.add_node("burst-sender")
    domain.network.configure_link(
        sender.address, inr.address, latency=0.0, bandwidth_bps=1e12
    )
    start = domain.now
    busy_before = inr.node.cpu.busy_seconds
    for index in range(_BURST):
        if tracer is not None:
            span = tracer.start_span(
                "burst.packet", node=sender.address, tags={"index": index}
            )
            message.trace = span.context
            raw = message.encode()
        domain.network.send(
            sender.address, inr.address, INR_PORT, DataPacket(raw=raw), len(raw) + 28
        )
        if tracer is not None:
            tracer.end_span(span, "sent")
    # Bounded: periodic timers reschedule forever, so run() would spin.
    domain.sim.run(until=start + 60.0)
    # The per-INR quantity Figure 15 reports is the CPU time spent
    # processing and routing the burst; measuring busy time (rather
    # than the last-completion timestamp) keeps stray background
    # protocol chatter from polluting the number.
    return (inr.node.cpu.busy_seconds - busy_before) * 1000.0


def _quiet_config() -> InrConfig:
    # Everything periodic pushed out of the measurement window so the
    # burst is the only work the resolver's CPU sees.
    return InrConfig(
        refresh_interval=1e6,
        record_lifetime=1e9,
        heartbeat_interval=1e6,
        expiry_sweep_interval=1e6,
        neighbor_timeout=1e9,
    )


def _measure_local(names: int, seed: int, costs: CostModel) -> float:
    domain = InsDomain(seed=seed, config=_quiet_config(), costs=costs)
    inr = domain.add_inr(address="inr-a")
    sink = domain.add_client(address="sink-host", resolver=inr)
    destination = _destination_name(None)
    tree = inr.trees["default"]
    _fill_tree(tree, names - 1, seed)
    tree.insert(
        destination,
        NameRecord(
            announcer=AnnouncerID.generate("fig15-dst"),
            endpoints=[Endpoint(host=sink.address, port=sink.port)],
        ),
    )
    return _burst_makespan_ms(domain, inr, destination, NameSpecifier())


def _setup_remote_same_vspace(domain: InsDomain, names: int, seed: int):
    """The two-INR forwarding topology: ``inr-a`` holds a route to
    ``inr-b``, which delivers to the sink. Returns (inr_a, destination).
    """
    inr_a = domain.add_inr(address="inr-a")
    inr_b = domain.add_inr(address="inr-b")
    sink = domain.add_client(address="sink-host", resolver=inr_b)
    destination = _destination_name(None)
    _fill_tree(inr_a.trees["default"], names - 1, seed)
    _fill_tree(inr_b.trees["default"], names - 1, seed + 1)
    inr_a.trees["default"].insert(
        destination,
        NameRecord(
            announcer=AnnouncerID.generate("fig15-dst"),
            endpoints=[],
            route=Route(next_hop=inr_b.address, metric=0.004),
        ),
    )
    inr_b.trees["default"].insert(
        destination,
        NameRecord(
            announcer=AnnouncerID.generate("fig15-dst"),
            endpoints=[Endpoint(host=sink.address, port=sink.port)],
        ),
    )
    return inr_a, destination


def _measure_remote_same_vspace(names: int, seed: int, costs: CostModel) -> float:
    domain = InsDomain(seed=seed, config=_quiet_config(), costs=costs)
    inr_a, destination = _setup_remote_same_vspace(domain, names, seed)
    return _burst_makespan_ms(domain, inr_a, destination, NameSpecifier())


def _measure_remote_other_vspace(names: int, seed: int, costs: CostModel) -> float:
    domain = InsDomain(seed=seed, config=_quiet_config(), costs=costs)
    inr_a = domain.add_inr(address="inr-a", vspaces=("default",))
    inr_b = domain.add_inr(address="inr-b", vspaces=("remote-space",))
    sink = domain.add_client(address="sink-host", resolver=inr_b)
    destination = _destination_name("remote-space")
    _fill_tree(inr_b.trees["remote-space"], names - 1, seed)
    inr_b.trees["remote-space"].insert(
        destination,
        NameRecord(
            announcer=AnnouncerID.generate("fig15-dst"),
            endpoints=[Endpoint(host=sink.address, port=sink.port)],
        ),
    )
    domain.run(1.0)  # let inr-b's vspace registration reach the DSR
    return _burst_makespan_ms(domain, inr_a, destination, NameSpecifier())


def run_routing_experiment(
    seed: int,
    delivery_artifact: bool,
    name_counts: Sequence[int] = (250, 1000, 2500, 5000),
    traced_burst: Optional[int] = None,
) -> WorkloadResult:
    """Reproduce Figure 15, the delivery-code artifact in the cost
    model or not.

    ``traced_burst`` adds one traced remote-same-vspace burst at that
    many names: every packet's root span chains into an ``inr.hop``
    span at ``inr-a`` (forwarded) and another at ``inr-b`` (delivered),
    so the artifact shows the per-hop split behind the flat ~9.8
    ms/packet curve. Traced packets are 24 wire bytes larger, so that
    burst is *not* comparable to the untraced curves.
    """
    costs = CostModel(model_delivery_artifact=delivery_artifact)
    rows: List[RoutingRow] = []
    for names in name_counts:
        rows.append(
            RoutingRow(
                names_in_vspace=names,
                local_ms=_measure_local(names, seed, costs),
                remote_same_vspace_ms=_measure_remote_same_vspace(names, seed, costs),
                remote_other_vspace_ms=_measure_remote_other_vspace(names, seed, costs),
            )
        )
    result = WorkloadResult(details={"rows": rows})
    metrics = result.metrics
    if traced_burst is not None:
        domain = InsDomain(seed=seed, config=_quiet_config(), costs=costs)
        collector = domain.observe(profile_events=True)
        inr_a, destination = _setup_remote_same_vspace(domain, traced_burst, seed)
        burst_ms = _burst_makespan_ms(
            domain, inr_a, destination, NameSpecifier(), tracer=collector.tracer
        )
        result.collector = domain.harvest()
        result.details["traced_burst_ms"] = burst_ms
        metrics["traced_burst_ms"] = burst_ms
    for row in rows:
        metrics[f"local_ms_{row.names_in_vspace}"] = row.local_ms
        metrics[f"remote_same_vspace_ms_{row.names_in_vspace}"] = (
            row.remote_same_vspace_ms
        )
        metrics[f"remote_other_vspace_ms_{row.names_in_vspace}"] = (
            row.remote_other_vspace_ms
        )
    # The delivery artifact is a deliberately reproduced *cost* from
    # the paper, so its importance is negative by construction: the
    # local curve flattens when it is disabled.
    metrics["local_ms_max_names"] = rows[-1].local_ms
    return result


def bench_routing_payload(result: WorkloadResult) -> dict:
    """The ``BENCH_routing.json`` payload of a ``routing`` result with a
    ``traced_burst``: the Figure 15 curves plus an ``observability``
    section with the traced burst's span summary (per-hop percentiles,
    drop attribution), metrics snapshot and makespan."""
    observability = result.collector.observability_payload()
    observability["traced_burst_ms"] = round(result.details["traced_burst_ms"], 6)
    return {
        "benchmark": "fig15-routing-burst",
        "schema_version": 1,
        "rows": [asdict(row) for row in result.details["rows"]],
        "observability": observability,
    }


def _routing_outputs(run: SpecRun, family: List[SpecRun]) -> List[Output]:
    """Figure 15 and, from the ``delivery_artifact`` arm, its ablation;
    the family's run (with its ``traced_burst``) adds
    ``BENCH_routing.json``."""
    rows = run.baseline.details["rows"]
    outputs: List[Output] = []
    if family:
        outputs = [("BENCH_routing.json", bench_routing_payload(run.baseline))]
    outputs.append((
        "Figure 15: time to route 100 packets (ms per burst)",
        ["names in vspace", "local", "remote same vspace",
         "remote different vspace"],
        [
            (
                row.names_in_vspace,
                f"{row.local_ms:.0f}",
                f"{row.remote_same_vspace_ms:.0f}",
                f"{row.remote_other_vspace_ms:.0f}",
            )
            for row in rows
        ],
    ))
    arm = run.ablations.get("delivery_artifact")
    if run.toggles.get("delivery_artifact") and arm is not None:
        outputs.append((
            "Figure 15 ablation: local case with the delivery artifact "
            "disabled",
            ["names in vspace", "local (ms/burst)"],
            [(row.names_in_vspace, f"{row.local_ms:.0f}")
             for row in arm.details["rows"]],
        ))
    return outputs


register_workload(Workload(
    id="routing",
    description=(
        "Figure 15: simulated ms to route a 100-packet burst (local / "
        "remote same-vspace / remote other-vspace) as the vspace grows"
    ),
    toggles=("delivery_artifact",),
    primary_metrics={"delivery_artifact": ("local_ms_max_names", "lower")},
    run=run_routing_experiment,
    suite_tables=_routing_outputs,
))
