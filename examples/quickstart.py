#!/usr/bin/env python
"""Quickstart: an INS domain in ~60 lines.

Builds a small domain (DSR + two self-configuring INRs), starts two
printer services with different load metrics, and exercises all three
INS delivery services: early binding, intentional anycast and
intentional multicast — plus name discovery, a range query, and early
binding asked for in band by a data packet with the B bit set.

Run:  python examples/quickstart.py
"""

import json

from repro.experiments import InsDomain
from repro.message import Binding, InsMessage
from repro.naming import NameSpecifier


def main() -> None:
    # One administrative domain inside a deterministic simulator.
    domain = InsDomain(seed=7)
    inr_a = domain.add_inr()  # self-configures via the DSR
    inr_b = domain.add_inr()  # joins inr_a's overlay (min-RTT peer)
    print(f"overlay: {inr_b.address} joined via "
          f"{inr_b.neighbors.parent.address}")

    # Services describe WHAT they are with attribute-value names and
    # advertise an application metric (here: current queue length).
    domain.add_service(
        "[service=printer[entity=spooler][id=lw1]][room=517]",
        resolver=inr_a, metric=5.0,
    )
    domain.add_service(
        "[service=printer[entity=spooler][id=lw2]][room=517]",
        resolver=inr_b, metric=2.0,
    )
    domain.run(3.0)  # advertisements propagate INR-to-INR

    client = domain.add_client(resolver=inr_a)
    anything_in_517 = NameSpecifier.parse(
        "[service=printer[entity=spooler]][room=517]"
    )

    # 1. Early binding: get [address, port, transport] + metrics back.
    resolution = client.resolve_early(anything_in_517)
    domain.run(0.5)
    print("early binding:")
    for endpoint, metric in resolution.value:
        print(f"  {endpoint}  metric={metric}")

    # 2. Intentional anycast: the message goes to the LEAST metric
    #    service; no address ever appears in the application.
    client.send_anycast(anything_in_517, b"print me")
    domain.run(0.5)

    # 3. Intentional multicast: every match receives a copy.
    client.send_multicast(anything_in_517, b"status?")
    domain.run(0.5)

    # 4. Name discovery, for bootstrap UIs like Floorplan.
    discovery = client.discover(NameSpecifier.parse("[service=printer]"))
    domain.run(0.5)
    print("discovered names:")
    for name, metric in discovery.value:
        print(f"  {name.to_wire()}  metric={metric}")

    # 5. A range query (Section 2.1's inequality operators): any
    #    printer in a room numbered below 520.
    below_520 = client.discover(
        NameSpecifier.parse("[service=printer][room=<520]")
    )
    domain.run(0.5)
    print("printers in rooms below 520:")
    for name, metric in below_520.value:
        print(f"  {name.to_wire()}  metric={metric}")

    # 6. Early binding over the data path: a packet with Figure 10's
    #    B bit set asks the INR for the bindings instead of delivery;
    #    they come back in band, addressed to the sender's own name.
    asker = domain.add_service("[service=asker[id=q1]]", resolver=inr_a)
    answers = []
    asker.on_message(lambda message, _source: answers.append(message.data))
    domain.run(0.5)
    asker.send_message(InsMessage(destination=anything_in_517,
                                  source=asker.name, binding=Binding.EARLY))
    domain.run(0.5)
    print("bindings answered to a B-bit data packet:")
    for binding in json.loads(answers[0])["bindings"]:
        print(f"  {binding['host']}:{binding['port']}  metric={binding['metric']}")

    stats = inr_a.stats
    print(f"inr-a stats: lookups={stats.lookups} "
          f"forwarded={stats.packets_forwarded} "
          f"delivered={stats.packets_delivered_locally}")


if __name__ == "__main__":
    main()
