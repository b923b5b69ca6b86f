"""The INR's dispatch table: one ``{message type: (handler, cost rule)}``
lookup serves ``handle_message`` and ``processing_cost``, assembled from
the tables the resolver's components declare.

The cost expectations below are the rules as the ``isinstance`` ladder
stated them before the table existed, written out per message.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import InsDomain
from repro.message import (
    DelegateAbort, DelegateAccept, DelegateCommit, DelegateOffer, DelegateTransfer,
    DsrClaimResponse, DsrListResponse, DsrVspaceResponse,
)
from repro.resolver import INR
from repro.resolver.inr import merge_tables
from repro.resolver.costs import DEFAULT_COSTS as C
from repro.resolver.protocol import (
    Advertisement, DataPacket, DiscoveryRequest, NameWithdraw, PeerAccept,
    PeerGoodbye, PeerRequest, PingRequest, PingResponse, ResolutionRequest,
    UpdateBatch,
)
from repro.resolver.reliable import ReliableAck, ReliableFrame


def _stub(cls, **fields):
    """An instance of ``cls`` carrying only what a cost rule reads."""
    instance = cls.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


THREE = (None, None, None)
EXPECTED = [
    (_stub(UpdateBatch, updates=list(THREE)), C.receive + 3 * C.update_per_name),
    (_stub(UpdateBatch, updates=[]), C.receive),
    (_stub(Advertisement), C.receive + C.update_per_name),
    (_stub(NameWithdraw), C.receive + C.update_per_name),
    (_stub(DelegateTransfer, records=THREE), C.receive + 3 * C.update_per_name),
    (_stub(ResolutionRequest), C.query),
    (_stub(DiscoveryRequest), C.query),
    (_stub(PingRequest), C.ping),
] + [
    (_stub(cls), C.receive)
    for cls in (
        DataPacket, ReliableAck, PingResponse, PeerRequest, PeerAccept, PeerGoodbye,
        DelegateOffer, DelegateAccept, DelegateCommit, DelegateAbort,
        DsrListResponse, DsrVspaceResponse, DsrClaimResponse,
    )
]


@pytest.fixture(scope="module")
def inr():
    return InsDomain(seed=5).add_inr(address="inr-a")


@pytest.mark.parametrize(
    "payload, cost", EXPECTED, ids=lambda value: type(value).__name__
)
def test_cost_of_each_message_and_of_a_frame_carrying_it(inr, payload, cost):
    assert inr.processing_cost(payload, 0) == cost
    frame = ReliableFrame(sender="inr-b", sequence=1, inner=payload)
    assert inr.processing_cost(frame, 0) == cost


def test_unlisted_payloads_cost_a_receive(inr):
    assert inr.processing_cost(SimpleNamespace(), 0) == C.receive
    frame = ReliableFrame(sender="inr-b", sequence=1, inner=SimpleNamespace())
    assert inr.processing_cost(frame, 0) == C.receive


def test_the_door_admits_everything_whatever_the_backlog():
    """Overload is cured by spawning and delegating, never by refusing
    work; ``admit`` stays on ``INR`` itself for the e2e ledger's wrapper."""
    assert "admit" in vars(INR)
    inr = InsDomain(seed=6).add_inr(address="inr-a")
    inr.node.cpu.execute(1e6, lambda: None)
    assert inr.node.cpu.backlog > 1e5
    assert all(inr.admit(payload, "anyone") for payload, _cost in EXPECTED)


def test_every_costed_message_has_a_handler():
    listed = {type(payload) for payload, _cost in EXPECTED} | {ReliableFrame}
    assert set(INR._DISPATCH) == listed
    for owner, handler, rule in INR._DISPATCH.values():
        assert callable(handler) and callable(rule)


def test_every_type_is_registered_by_exactly_one_component(inr):
    components = {
        owner: type(getattr(inr, owner))
        for owner, _handler, _rule in INR._DISPATCH.values()
    }
    assert set(components) == {
        "membership", "discovery", "dataplane", "load", "delegation",
    }
    claims = [
        (message, owner)
        for owner, component in components.items()
        for message in component.HANDLERS
    ]
    assert len(claims) == len({message for message, _owner in claims}) == 21
    for message, owner in claims:
        registered_by, handler, rule = INR._DISPATCH[message]
        assert registered_by == owner
        assert (handler, rule) == components[owner].HANDLERS[message]
        # the handler is the registering component's own method ...
        assert vars(components[owner])[handler.__name__] is handler
        # ... and the incarnation's table holds it bound to that component
        bound, bound_rule = inr.dispatch[message]
        assert bound.__func__ is handler and bound.__self__ is getattr(inr, owner)
        assert bound_rule is rule


def test_a_type_claimed_by_two_components_is_an_error():
    def handler(self, payload, source):
        return None

    one = {DataPacket: (handler, None)}
    other = {Advertisement: (handler, None), DataPacket: (handler, None)}
    with pytest.raises(TypeError, match="DataPacket.*both one and other"):
        merge_tables(one=one, other=other)
    merged = merge_tables(one=one, other={Advertisement: (handler, None)})
    assert merged == {
        DataPacket: ("one", handler, None),
        Advertisement: ("other", handler, None),
    }
