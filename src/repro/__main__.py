"""``python -m repro`` — a guided, self-contained INS demonstration.

Builds a small domain, walks through discovery, the three delivery
services, mobility and failure handling, and finishes with the
operator's view (overlay topology and per-resolver reports).
"""

from __future__ import annotations

from .apps import CameraTransmitter, PrinterSpooler
from .client import MobilityManager
from .experiments import InsDomain
from .naming import NameSpecifier
from .experiments.visualize import domain_report, render_name_tree


def main() -> None:
    print(__doc__)
    domain = InsDomain(seed=99)
    inr_a = domain.add_inr()
    inr_b = domain.add_inr()
    print(f"==> two INRs self-configured: {inr_b.address} peered with "
          f"{inr_b.neighbors.parent.address}\n")

    def app(cls, host, **kwargs):
        node = domain.network.add_node(host)
        instance = cls(node, domain.ports.allocate(),
                       resolver=inr_a.address, **kwargs)
        instance.start()
        return instance

    camera = app(CameraTransmitter, "camera-host", camera_id="a", room="510")
    printer = app(PrinterSpooler, "printer-host", printer_id="lw1", room="510")
    domain.run(3.0)

    client = domain.add_client(resolver=inr_b)
    print("==> discovery from the other resolver:")
    reply = client.discover(NameSpecifier.parse("[room=510]"))
    domain.run(1.0)
    for name, metric in reply.value:
        print(f"    {name.to_wire()}  metric={metric}")

    print("\n==> intentional anycast to [service=printer][room=510]:")
    inbox = []
    printer.on_message(lambda m, s: inbox.append(m.data))
    client.send_anycast(NameSpecifier.parse("[service=printer][room=510]"),
                        b"job-1")
    domain.run(1.0)
    print(f"    printer received {inbox}")

    print("\n==> the camera's host roams to a new address:")
    MobilityManager(camera.node).migrate("camera-roaming")
    domain.run(1.0)
    reply = client.resolve_early(
        NameSpecifier.parse("[service=camera[entity=transmitter]]"))
    domain.run(1.0)
    for endpoint, _metric in reply.value:
        print(f"    early binding now returns {endpoint}")

    print("\n==> inr-a's name-tree (default vspace):")
    print(render_name_tree(inr_a.trees["default"]))

    print("\n==> operator view:")
    print(domain_report(domain))


if __name__ == "__main__":
    main()
