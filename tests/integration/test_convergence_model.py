"""Model-based convergence testing.

Hypothesis drives random operation sequences — start/stop services,
rename them, change metrics, crash resolvers — against a live domain,
then lets the protocols quiesce and checks the system against a trivial
model: every surviving resolver's view equals the set of services that
are still alive and attached to a live resolver.

This is the strongest statement the paper makes about robustness
("inconsistencies ... are healed by soft state") turned into an
executable property.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.resolver import InrConfig

from ..conftest import child


class Operation:
    START, STOP, RENAME, METRIC, CRASH_INR = range(5)


@st.composite
def operation_scripts(draw):
    length = draw(st.integers(min_value=1, max_value=12))
    return [
        (
            draw(st.integers(min_value=0, max_value=4)),  # op kind
            draw(st.integers(min_value=0, max_value=5)),  # subject index
            draw(st.integers(min_value=0, max_value=99)),  # parameter
        )
        for _ in range(length)
    ]


@given(script=operation_scripts(), seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_every_live_resolver_converges_to_the_live_service_set(script, seed):
    config = InrConfig(refresh_interval=2.0, record_lifetime=6.0)
    domain = InsDomain(seed=seed, config=config)
    inrs = [domain.add_inr(address=f"inr-{i}") for i in range(3)]
    crashed = set()
    services = {}  # sid -> (service, alive)
    next_sid = 0
    domain.run(1.0)

    for kind, subject, parameter in script:
        kind = kind % 5
        if kind == Operation.START:
            resolver = inrs[subject % len(inrs)]
            if resolver.address in crashed:
                continue  # a service would not attach to a dead INR
            sid = f"s{next_sid}"
            next_sid += 1
            service = domain.add_service(
                f"[service=conv[id={sid}]][tag=t{parameter % 3}]",
                resolver=resolver, refresh_interval=2.0, lifetime=6.0,
            )
            services[sid] = service
        elif kind == Operation.STOP and services:
            sid = sorted(services)[subject % len(services)]
            services.pop(sid).stop()
        elif kind == Operation.RENAME and services:
            sid = sorted(services)[subject % len(services)]
            services[sid].rename(NameSpecifier.parse(
                f"[service=conv[id={sid}]][tag=t{parameter % 3}]"
            ))
        elif kind == Operation.METRIC and services:
            sid = sorted(services)[subject % len(services)]
            services[sid].set_metric(float(parameter))
        elif kind == Operation.CRASH_INR and len(crashed) < len(inrs) - 1:
            victim = inrs[subject % len(inrs)]
            if victim.address in crashed:
                continue
            crashed.add(victim.address)
            victim.crash()
            # services attached to it die with their resolver (they
            # would need reattachment, which this model does not do)
            for sid in [s for s, svc in services.items()
                        if svc.resolver == victim.address]:
                services.pop(sid).stop()
        domain.run(0.5)

    # Let soft state quiesce: neighbor timeouts, re-joins, expiry
    # cascades (one lifetime per overlay hop), refresh rounds.
    domain.run(120.0)

    expected = set(services)
    for inr in inrs:
        if inr.address in crashed:
            continue
        found = {
            child(name.root("service"), "id").value
            for name, _ in inr.trees["default"].names()
        }
        assert found == expected, (
            f"{inr.address} sees {sorted(found)}, expected {sorted(expected)}"
        )
