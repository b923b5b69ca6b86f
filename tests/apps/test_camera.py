"""Tests for the Camera application (Section 3.2)."""

import pytest

from repro.apps import CameraReceiver, CameraTransmitter
from repro.client import MobilityManager
from repro.experiments import InsDomain
from repro.resolver import InrConfig

from ..conftest import child, parse


@pytest.fixture
def studio():
    domain = InsDomain(
        seed=110, config=InrConfig(refresh_interval=3.0, record_lifetime=9.0)
    )
    inr_a = domain.add_inr()
    inr_b = domain.add_inr()

    def app(cls, host, resolver, **kwargs):
        node = domain.network.add_node(host)
        instance = cls(node, domain.ports.allocate(),
                       resolver=resolver.address,
                       refresh_interval=3.0, lifetime=9.0, **kwargs)
        instance.start()
        return instance

    camera = app(CameraTransmitter, "h-cam", inr_a, camera_id="a", room="510")
    rx1 = app(CameraReceiver, "h-rx1", inr_b, receiver_id="r1", room="510")
    rx2 = app(CameraReceiver, "h-rx2", inr_b, receiver_id="r2", room="510")
    domain.run(2.0)
    return domain, (inr_a, inr_b), camera, (rx1, rx2)


class TestRequestResponse:
    def test_receiver_gets_a_frame(self, studio):
        domain, inrs, camera, (rx1, rx2) = studio
        reply = rx1.request_frame()
        domain.run(1.0)
        assert "frame" in reply.value
        assert reply.value["camera"] == "a"
        assert rx1.frames  # stored locally too

    def test_response_routed_by_receiver_id(self, studio):
        """The id field lets INRs route the reply to the requester only."""
        domain, inrs, camera, (rx1, rx2) = studio
        rx1.request_frame()
        domain.run(1.0)
        assert len(rx1.frames) == 1
        assert len(rx2.frames) == 0

    def test_frames_advance_over_time(self, studio):
        domain, inrs, camera, (rx1, rx2) = studio
        first = rx1.request_frame()
        domain.run(3.0)
        second = rx1.request_frame()
        domain.run(1.0)
        assert first.value["frame"] != second.value["frame"]


class TestSubscription:
    def test_publish_reaches_all_subscribers(self, studio):
        domain, inrs, camera, (rx1, rx2) = studio
        camera.publish_frame()
        domain.run(1.0)
        assert len(rx1.frames) == 1
        assert len(rx2.frames) == 1

    def test_subscription_is_by_room(self, studio):
        domain, inrs, camera, (rx1, rx2) = studio
        rx2.subscribe_to_room("601")
        domain.run(1.0)
        camera.publish_frame()
        domain.run(1.0)
        assert len(rx1.frames) == 1
        assert len(rx2.frames) == 0

    def test_periodic_publishing(self):
        domain = InsDomain(seed=111)
        inr = domain.add_inr()
        cam_node = domain.network.add_node("h-cam")
        camera = CameraTransmitter(cam_node, domain.ports.allocate(),
                                   camera_id="a", room="510",
                                   resolver=inr.address, publish_interval=2.0)
        camera.start()
        rx_node = domain.network.add_node("h-rx")
        receiver = CameraReceiver(rx_node, domain.ports.allocate(),
                                  receiver_id="r", room="510",
                                  resolver=inr.address)
        receiver.start()
        domain.run(9.0)
        assert camera.frames_published >= 3
        assert len(receiver.frames) >= 3


class TestMobility:
    def test_node_mobility_keeps_requests_flowing(self, studio):
        domain, inrs, camera, (rx1, rx2) = studio
        MobilityManager(camera.node).migrate("cam-roaming")
        domain.run(1.0)
        reply = rx1.request_frame()
        domain.run(1.0)
        assert "frame" in reply.value

    def test_service_mobility_changes_room(self, studio):
        domain, inrs, camera, (rx1, rx2) = studio
        camera.move_to_room("601")
        domain.run(1.0)
        # the old room's name is gone everywhere, the new one resolvable
        tree = inrs[0].trees["default"]
        assert not tree.lookup(parse(
            "[service=camera[entity=transmitter]][room=510]"))
        assert tree.lookup(parse(
            "[service=camera[entity=transmitter]][room=601]"))
        # a receiver following room 601 now gets this camera's frames
        rx1.subscribe_to_room("601")
        domain.run(1.0)
        camera.publish_frame()
        domain.run(1.0)
        assert rx1.frames


class TestCaching:
    def test_cacheable_requests_served_from_inr_cache(self):
        domain = InsDomain(seed=112)
        inr_a = domain.add_inr()
        inr_b = domain.add_inr()
        cam_node = domain.network.add_node("h-cam")
        camera = CameraTransmitter(cam_node, domain.ports.allocate(),
                                   camera_id="a", room="510",
                                   resolver=inr_a.address, cache_lifetime=60)
        camera.start()
        rx_node = domain.network.add_node("h-rx")
        receiver = CameraReceiver(rx_node, domain.ports.allocate(),
                                  receiver_id="r", room="510",
                                  resolver=inr_b.address)
        receiver.start()
        domain.run(2.0)
        for i in range(5):
            domain.sim.schedule(i * 0.5, receiver.request_frame, None, True)
        domain.run(5.0)
        assert len(receiver.frames) == 5
        assert camera.requests_served <= 2  # nearly all from caches
        total_cache_hits = (inr_a.stats.packets_answered_from_cache
                            + inr_b.stats.packets_answered_from_cache)
        assert total_cache_hits >= 3

    def test_uncacheable_requests_always_reach_origin(self):
        domain = InsDomain(seed=113)
        inr = domain.add_inr()
        cam_node = domain.network.add_node("h-cam")
        camera = CameraTransmitter(cam_node, domain.ports.allocate(),
                                   camera_id="a", room="510",
                                   resolver=inr.address, cache_lifetime=0)
        camera.start()
        rx_node = domain.network.add_node("h-rx")
        receiver = CameraReceiver(rx_node, domain.ports.allocate(),
                                  receiver_id="r", room="510",
                                  resolver=inr.address)
        receiver.start()
        domain.run(2.0)
        for i in range(4):
            domain.sim.schedule(i * 0.5, receiver.request_frame, None, False)
        domain.run(4.0)
        assert camera.requests_served == 4


class TestFigure2Attributes:
    """The paper's Figure 2 camera carries data-type/format/resolution;
    selecting on those orthogonal attributes must work."""

    def test_name_matches_figure_2_structure(self):
        from repro.apps import transmitter_name

        name = transmitter_name("a", "510")
        camera = name.root("service")
        assert child(camera, "data-type").value == "picture"
        assert child(camera, "data-type", "format").value == "jpg"
        assert child(camera, "resolution").value == "640x480"

    def test_select_camera_by_resolution(self):
        domain = InsDomain(seed=114)
        inr = domain.add_inr()

        def cam(camera_id, resolution):
            node = domain.network.add_node(f"h-{camera_id}")
            camera = CameraTransmitter(
                node, domain.ports.allocate(), camera_id=camera_id,
                room="510", resolver=inr.address, resolution=resolution,
            )
            camera.start()
            return camera

        low = cam("low", "640x480")
        high = cam("high", "1280x960")
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        reply = client.discover(parse(
            "[service=camera[entity=transmitter][resolution=1280x960]]"
        ))
        domain.run(1.0)
        ids = {child(name.root("service"), "id").value
               for name, _ in reply.value}
        assert ids == {"high"}

    def test_select_by_format_under_data_type(self):
        domain = InsDomain(seed=115)
        inr = domain.add_inr()
        node = domain.network.add_node("h-cam")
        CameraTransmitter(node, domain.ports.allocate(), camera_id="a",
                          room="510", resolver=inr.address,
                          image_format="png").start()
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        hit = client.discover(parse(
            "[service=camera[data-type=picture[format=png]]]"))
        miss = client.discover(parse(
            "[service=camera[data-type=picture[format=jpg]]]"))
        domain.run(1.0)
        assert len(hit.value) == 1
        assert len(miss.value) == 0
