#!/usr/bin/env python
"""Floorplan: map-based service discovery (Section 3.1).

A user walks through a building: entering a region pops up its map
(fetched from the Locator service by intentional name, never by
address) and the services discovered there appear as icons. Services
that stop advertising disappear from the display after their soft-state
lifetime — no de-registration ever happens. The TV is a device
controller, driven by a universal remote that names the room's TV and
never learns its address.

Run:  python examples/floorplan_tour.py
"""

from repro.apps import (
    CameraTransmitter,
    DeviceController,
    FloorplanApp,
    Locator,
    PrinterSpooler,
    RemoteControl,
    controllers_in_room,
)
from repro.experiments import InsDomain
from repro.resolver import InrConfig


def main() -> None:
    # Short lifetimes so the demo shows soft-state expiry quickly.
    domain = InsDomain(seed=5, config=InrConfig(refresh_interval=5.0,
                                                record_lifetime=15.0))
    inr = domain.add_inr()

    def app(cls, host, **kwargs):
        node = domain.network.add_node(host)
        instance = cls(node, domain.ports.allocate(),
                       resolver=inr.address, **kwargs)
        instance.start()
        return instance

    locator = app(Locator, "locator-host")
    locator.add_map("floor-5", "+----[ floor 5 ]----+ rooms 510..519")
    locator.add_map("floor-6", "+----[ floor 6 ]----+ rooms 610..619")

    camera = app(CameraTransmitter, "cam-host", camera_id="a", room="510",
                 refresh_interval=5.0, lifetime=15.0)
    printer = app(PrinterSpooler, "printer-host", printer_id="lw5",
                  room="517", refresh_interval=5.0, lifetime=15.0)
    tv = app(DeviceController, "tv-host", kind="tv-mp3", device_id="tv1",
             room="511", refresh_interval=5.0, lifetime=15.0)
    remote = app(RemoteControl, "remote-host", user="carol")

    user = app(FloorplanApp, "tablet", user="carol", region="floor-5")
    domain.run(2.0)

    print("carol enters floor 5:")
    user.move_to_region("floor-5")
    domain.run(1.0)
    print(f"  map: {user.map_data}")
    print("  icons:")
    for label in user.visible_services():
        print(f"    {label}")

    target = user.click("camera/transmitter@510")
    print(f"  clicking the camera icon launches against: {target}")

    print("\ncarol's remote drives whichever TV is in room 511:")
    room_tv = controllers_in_room("511", kind="tv-mp3")
    remote.power(room_tv, on=True)
    remote.set_volume(room_tv, 40)
    remote.play(room_tv, "news")
    status = remote.status(room_tv)
    domain.run(1.0)
    print(f"  {status.value}")

    print("\nthe TV controller dies (simply stops advertising):")
    tv.stop()
    domain.run(25.0)  # > soft-state lifetime
    user.refresh()
    domain.run(1.0)
    print("  icons after expiry:")
    for label in user.visible_services():
        print(f"    {label}")

    print("\ncarol walks to floor 6:")
    user.move_to_region("floor-6")
    domain.run(1.0)
    print(f"  map: {user.map_data}")


if __name__ == "__main__":
    main()
