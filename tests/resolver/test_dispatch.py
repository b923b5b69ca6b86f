"""The INR's dispatch table: one ``{message type: (handler, cost rule)}``
lookup serves ``handle_message`` and ``processing_cost``.

The cost expectations below are the rules as the ``isinstance`` ladder
stated them before the table existed, written out per message.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import InsDomain
from repro.message import (
    CustodyTransfer, DelegateAbort, DelegateAccept, DelegateCommit, DelegateOffer,
    DelegateTransfer, DsrClaimResponse, DsrListResponse, DsrVspaceResponse,
)
from repro.resolver import INR
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
    (_stub(CustodyTransfer, records=THREE), C.receive + 3 * C.update_per_name),
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


def test_every_costed_message_has_a_handler():
    listed = {type(payload) for payload, _cost in EXPECTED} | {ReliableFrame}
    assert set(INR._DISPATCH) == listed
    for handler, rule in INR._DISPATCH.values():
        assert getattr(INR, handler.__name__) is handler
        assert callable(rule)
