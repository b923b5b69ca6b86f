#!/usr/bin/env python
"""Load balancing: spawn-on-overload and self-termination (§2.5).

One INR is hammered with early-binding lookups. Watch it claim a
candidate node from the DSR, spawn a helper INR there, and watch the
client configuration protocol (periodic re-selection driven by
INR-pings, which queue behind the loaded resolver's CPU) move the
traffic over. When the load stops, the idle helper retires and returns
its node — unless it is the sole resolver of a virtual space.

Run:  python examples/load_balancing.py
"""

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.resolver import InrConfig, ResolutionRequest
from repro.resolver.ports import INR_PORT


def main() -> None:
    config = InrConfig(
        enable_load_balancing=True,
        spawn_lookup_rate=150.0,       # lookups/s that trigger a spawn
        terminate_lookup_rate=1.0,     # idleness that triggers retirement
        load_check_interval=5.0,
        minimum_lifetime=10.0,
        refresh_interval=1e6,          # keep update traffic out of the demo
    )
    domain = InsDomain(seed=29, config=config)
    main_inr = domain.add_inr(address="inr-main")
    domain.add_candidate("spare-1")
    domain.add_service("[service=busy[id=1]]", resolver=main_inr)
    client = domain.add_client(resolver=main_inr, reselect_interval=5.0)
    domain.settle()

    # An open-loop lookup storm: 900/s against a resolver that can
    # serve ~670/s — genuinely overloaded, queues build up.
    query = NameSpecifier.parse("[service=busy]")

    def one_lookup():
        target = client.resolver or main_inr.address
        client.send(
            target, INR_PORT,
            ResolutionRequest(name=query, reply_to=client.address,
                              reply_port=client.port),
        )

    duration = 30.0
    for i in range(int(duration * 900)):
        domain.sim.schedule(i / 900.0, one_lookup)

    print(f"{'t':>5}  {'active INRs':<24} {'client uses':<10} "
          f"{'main lookups':>12} {'helper lookups':>14}")
    for _ in range(8):
        domain.run(5.0)
        helper = next((i for i in domain.inrs if i.address == "spare-1"), None)
        print(f"{domain.now:5.0f}  {','.join(domain.dsr.active_inrs):<24} "
              f"{client.resolver or '-':<10} "
              f"{main_inr.stats.lookups:>12} "
              f"{helper.stats.lookups if helper else 0:>14}")

    print("\nload over — waiting for the idle helper to retire...")
    domain.run(180.0)
    print(f"active INRs now: {','.join(domain.dsr.active_inrs)}")
    print(f"candidates returned to the pool: {domain.dsr.candidates or '(none)'}")


if __name__ == "__main__":
    main()
