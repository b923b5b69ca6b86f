#!/usr/bin/env python
"""Virtual spaces: partitioning the namespace across resolvers (§2.5).

Two INRs each route one virtual space (cameras vs printers). Clients
attached to either resolver can reach services in both spaces: requests
for a foreign vspace are forwarded to its owning resolver, discovered
through the DSR once and cached afterwards.

Run:  python examples/vspace_partitioning.py
"""

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.experiments.visualize import render_name_tree


def main() -> None:
    domain = InsDomain(seed=17)
    cameras_inr = domain.add_inr(address="inr-cameras", vspaces=("cameras",))
    printers_inr = domain.add_inr(address="inr-printers", vspaces=("printers",))

    for i in range(3):
        domain.add_service(
            f"[service=camera[id=c{i}]][room=51{i}][vspace=cameras]",
            resolver=cameras_inr,
        )
        domain.add_service(
            f"[service=printer[id=p{i}]][room=51{i}][vspace=printers]",
            resolver=printers_inr, metric=float(i),
        )
    domain.run(3.0)

    print("per-resolver name-trees (each routes only its own space):")
    print(f"  inr-cameras:  {cameras_inr.name_count('cameras')} names, "
          f"printers tree: {cameras_inr.routes_vspace('printers')}")
    print(f"  inr-printers: {printers_inr.name_count('printers')} names, "
          f"cameras tree: {printers_inr.routes_vspace('cameras')}")
    print(f"  DSR vspace map: cameras -> "
          f"{domain.dsr.resolvers_for('cameras')}, printers -> "
          f"{domain.dsr.resolvers_for('printers')}")

    # A client on the cameras resolver reaches printers transparently.
    client = domain.add_client(resolver=cameras_inr)
    printer_query = NameSpecifier.parse("[service=printer][vspace=printers]")

    got = []
    for service in domain.services:
        service.on_message(
            lambda m, s, svc=service: got.append(svc.name.to_wire())
        )

    queries_before = domain.dsr.queries_served
    print("\nclient on inr-cameras anycasts 3 jobs into the printers space:")
    for i in range(3):
        client.send_anycast(printer_query, f"job{i}".encode())
        domain.run(0.5)
    for wire in got:
        print(f"  delivered to {wire}")
    print(f"  DSR consulted {domain.dsr.queries_served - queries_before} time(s) "
          "(first packet only; the vspace mapping is cached)")

    reply = client.discover(printer_query)
    domain.run(1.0)
    print("\ncross-space discovery from inr-cameras:")
    for name, metric in reply.value:
        print(f"  {name.to_wire()} metric={metric}")

    print("\ninr-printers name-tree:")
    print(render_name_tree(printers_inr.trees["printers"]))


if __name__ == "__main__":
    main()
