"""A built domain holds no instance dict per service, per name-record
or per refresh message.

A domain holds one ``Service`` (with its node, CPU, refresh timer,
reply and counters) per service, one ``NameRecord`` (with its route
and endpoints) per name per resolver, and one advertisement or kept
update per name: each of these classes declares ``__slots__``, so none
of them carries a dict. The INRs, the DSR and the apps keep theirs.
"""

from repro.client import RetryPolicy
from repro.experiments import InsDomain
from repro.netsim import PeriodicTimer
from repro.resolver import InrConfig


def _built_domain():
    domain = InsDomain(seed=7, config=InrConfig(refresh_interval=1.0, record_lifetime=3.0))
    inrs = [domain.add_inr(), domain.add_inr()]
    for index in range(20):
        domain.add_service(
            f"[service=printer[id=p{index}]][room={index % 3}]",
            resolver=inrs[index % 2],
            refresh_interval=1.0,
            lifetime=3.0,
        )
    domain.run(2.5)  # attach, advertise, and one full refresh round
    return domain, inrs


def _assert_slotted(obj):
    assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_services_records_and_messages_carry_no_instance_dict():
    domain, inrs = _built_domain()
    services = domain.services
    assert len(services) == 20
    for service in services:
        _assert_slotted(service)
        _assert_slotted(service.node)
        _assert_slotted(service.node.cpu)
        _assert_slotted(service.attached)
        _assert_slotted(service.stats)
        timers = [timer for timer in service._timers if isinstance(timer, PeriodicTimer)]
        assert timers
        for timer in timers:
            _assert_slotted(timer)
        advertisement = service._advertisement
        assert advertisement is not None
        _assert_slotted(advertisement)
        for endpoint in advertisement.endpoints:
            _assert_slotted(endpoint)

    assert domain.network.links
    for _, link in domain.network.links:
        _assert_slotted(link.stats)

    kept = 0
    for inr in inrs:
        records = list(inr.trees["default"].records())
        assert len(records) == len(services)  # its own and its peer's
        for record in records:
            _assert_slotted(record)
            _assert_slotted(record.route)
            for endpoint in record.endpoints:
                _assert_slotted(endpoint)
            if record.kept_update is not None:
                kept += 1
                _assert_slotted(record.kept_update)
    assert kept  # the round did keep updates, so the check above ran


def test_clients_built_without_a_policy_share_one():
    domain, inrs = _built_domain()
    first = domain.add_client(resolver=inrs[0])
    second = domain.add_client(resolver=inrs[1])
    assert first.retry_policy is second.retry_policy
    assert first.retry_policy == RetryPolicy()
    assert domain.services[0].retry_policy is first.retry_policy
