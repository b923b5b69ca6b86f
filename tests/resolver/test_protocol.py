"""Tests for control-plane message types and their size accounting."""

from repro.nametree import AnnouncerID, Endpoint
from repro.resolver import (
    Advertisement,
    DataPacket,
    DiscoveryRequest,
    NameUpdate,
    PingRequest,
    ResolutionRequest,
    ResolutionResponse,
    UpdateBatch,
)
from repro.resolver.protocol import BASE_OVERHEAD, PER_NAME_OVERHEAD

from ..conftest import parse


def make_update(wire="[a=b]") -> NameUpdate:
    return NameUpdate(
        name=parse(wire),
        announcer=AnnouncerID.generate("h"),
        endpoints=(Endpoint("h", 1),),
        anycast_metric=0.0,
        route_metric=0.0,
        lifetime=45.0,
        vspace="default",
    )


class TestWireSizes:
    def test_update_size_includes_name_and_overhead(self):
        update = make_update("[a=b]")
        assert update.wire_size() == len("[a=b]") + PER_NAME_OVERHEAD + 12

    def test_batch_size_sums_updates(self):
        updates = [make_update(), make_update("[c=d[e=f]]")]
        batch = UpdateBatch(sender="x", updates=updates)
        assert batch.wire_size() == BASE_OVERHEAD + sum(
            u.wire_size() for u in updates
        )

    def test_empty_batch_costs_base_overhead(self):
        assert UpdateBatch(sender="x", updates=[]).wire_size() == BASE_OVERHEAD

    def test_advertisement_size(self):
        ad = Advertisement(
            name=parse("[a=b]"),
            announcer=AnnouncerID.generate("h"),
            endpoints=(Endpoint("h", 1),),
            anycast_metric=0.0,
            lifetime=45.0,
            triggered=False,
        )
        assert ad.wire_size() == BASE_OVERHEAD + len("[a=b]") + 12

    def test_data_packet_size_is_raw_plus_overhead(self):
        packet = DataPacket(raw=b"x" * 100)
        assert packet.wire_size() == BASE_OVERHEAD + 100

    def test_resolution_response_scales_with_bindings(self):
        response = ResolutionResponse(
            request_id=1, bindings=[(Endpoint("h", 1), 0.0)] * 3
        )
        assert response.wire_size() == BASE_OVERHEAD + 60


class TestRequestIds:
    def test_request_ids_are_unique(self):
        ids = {
            ResolutionRequest(name=parse("[a=b]"), reply_to="x", reply_port=1).request_id
            for _ in range(20)
        }
        assert len(ids) == 20

    def test_different_types_share_the_sequence(self):
        a = DiscoveryRequest(filter=parse("[a=b]"), reply_to="x", reply_port=1)
        b = PingRequest(probe=parse("[a=b]"), reply_to="x", reply_port=1)
        assert a.request_id != b.token


class TestDataPacketDecoding:
    def test_lazy_decode_caches(self):
        from repro.message import InsMessage

        message = InsMessage(destination=parse("[a=b]"), data=b"hello")
        packet = DataPacket(raw=message.encode())
        first = packet.message
        assert first.data == b"hello"
        assert packet.message is first  # decoded once
