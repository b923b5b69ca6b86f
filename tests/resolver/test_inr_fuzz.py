"""Fuzz the INR's message handler: arbitrary and malformed control
messages must never crash a resolver (robustness, design goal iii)."""

import random

from hypothesis import given, settings, strategies as st

from repro.experiments import InsDomain
from repro.nametree import AnnouncerID, Endpoint
from repro.resolver import (
    Advertisement,
    DataPacket,
    NameUpdate,
    PeerAccept,
    PeerGoodbye,
    PeerRequest,
    PingResponse,
    UpdateBatch,
)
from repro.resolver.ports import INR_PORT

from ..conftest import parse

tokens = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6
)


@st.composite
def random_payload(draw):
    choice = draw(st.integers(min_value=0, max_value=6))
    if choice == 0:
        return DataPacket(raw=draw(st.binary(max_size=120)))
    if choice == 1:
        return UpdateBatch(
            sender=draw(tokens),
            updates=[
                NameUpdate(
                    name=parse(f"[{draw(tokens)}={draw(tokens)}]"),
                    announcer=AnnouncerID.generate(draw(tokens)),
                    endpoints=(Endpoint(draw(tokens), draw(st.integers(0, 65535))),),
                    anycast_metric=draw(st.floats(allow_nan=False,
                                                  allow_infinity=False)),
                    route_metric=draw(st.floats(min_value=0, max_value=1e6)),
                    lifetime=draw(st.floats(min_value=0, max_value=1e6)),
                    vspace=draw(st.sampled_from(["default", "other", ""])),
                )
                for _ in range(draw(st.integers(0, 3)))
            ],
            triggered=draw(st.booleans()),
        )
    if choice == 2:
        return Advertisement(
            name=parse(f"[{draw(tokens)}={draw(tokens)}]"),
            announcer=AnnouncerID.generate(draw(tokens)),
            endpoints=(),
            anycast_metric=draw(st.floats(allow_nan=False, allow_infinity=False)),
            lifetime=draw(st.floats(min_value=0, max_value=1e6)),
            triggered=False,
        )
    if choice == 3:
        return PeerRequest(requester=draw(tokens),
                           measured_rtt=draw(st.floats(0, 10)))
    if choice == 4:
        return PeerGoodbye(sender=draw(tokens))
    if choice == 5:
        return PingResponse(token=draw(st.integers(-10, 1 << 32)),
                            responder=draw(tokens))
    return PeerAccept(accepter=draw(tokens))


@given(payloads=st.lists(random_payload(), min_size=1, max_size=12),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_inr_survives_arbitrary_control_traffic(payloads, seed):
    """Feed a live INR a random message soup; it must keep serving."""
    domain = InsDomain(seed=seed)
    inr = domain.add_inr(address="inr-target")
    domain.add_service("[service=canary[id=1]]", resolver=inr)
    domain.run(1.0)
    source = domain.network.add_node(f"fuzzer-{seed}")
    for payload in payloads:
        domain.network.send(source.address, "inr-target", INR_PORT, payload, 64)
    domain.run(5.0)
    # The resolver still answers a legitimate query afterwards.
    client = domain.add_client(resolver=inr)
    reply = client.resolve_early(parse("[service=canary]"))
    domain.run(1.0)
    assert reply.done
    assert len(reply.value) == 1
