"""A restarted INR is a fresh INR.

``INR._incarnate()`` is the one place that builds what an incarnation
holds in memory, so after ``crash()`` + ``restart()`` the process and
every component it hosts must look like a newly constructed and started
INR's: the same attributes, of the same types, empty where a new one's
are empty. Only the declared survivors may differ — and the custody and
delegation facts ``crash()`` wrote to stable storage, re-adopted on the
way up.
"""

import pytest

from repro.experiments import InsDomain
from repro.message import DsrClaimResponse
from repro.resolver import InrConfig, inr as inr_module

from ..conftest import parse

COMPONENTS = ("membership", "discovery", "dataplane", "custodian", "load", "delegation")

#: INR attributes that may differ between a restarted and a new process:
#: what survives a crash by design, and ``Process``'s timer bookkeeping.
SURVIVORS = {"restarts", "tracer", "_timers", "_timers_sweep_at"}

BASE = dict(
    refresh_interval=1.0,
    record_lifetime=3.0,
    expiry_sweep_interval=0.5,
    heartbeat_interval=1.0,
    neighbor_timeout=4.0,
    load_check_interval=1.0,
)

FEATURES = {
    "plain": {},
    "custody": dict(enable_custody=True, custody_ttl=60.0),
    "relaxation": dict(enable_relaxation=True),
    "load-balancing": dict(enable_load_balancing=True, spawn_lookup_rate=1e9),
    "reliable-delta": dict(update_mode="reliable-delta"),
}


def _shape(value, depth=2):
    """What a value looks like, without its identity: scalars as they
    are (times by type only), containers by type and emptiness, the
    resolver's own objects by the shape of their attributes."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return "float"
    if isinstance(value, (dict, list, tuple, set, frozenset, bytes)):
        return (type(value).__name__, "empty" if not value else "filled")
    module = type(value).__module__
    if depth and module.startswith("repro.resolver") and hasattr(
        value, "__dict__"
    ):
        return (
            type(value).__name__,
            {
                name: _shape(inner, depth - 1)
                for name, inner in vars(value).items()
                if name != "inr"
            },
        )
    return type(value).__name__


def _attributes(value):
    """Every attribute ``value`` holds: its instance dict and the slots
    its classes declare (``Process`` keeps its state in slots, which
    ``vars`` does not see)."""
    attributes = dict(vars(value))
    for cls in type(value).__mro__:
        for name in vars(cls).get("__slots__", ()):
            if hasattr(value, name):
                attributes[name] = getattr(value, name)
    return attributes


def _shapes(inr):
    shapes = {"INR": {
        name: _shape(value, depth=0)
        for name, value in _attributes(inr).items()
        if name not in SURVIVORS
    }}
    for component in COMPONENTS:
        shapes[component] = _shape(getattr(inr, component))[1]
    return shapes


def _dirty(domain, inr, other):
    """Leave something in every table an incarnation keeps."""
    domain.add_service("[service=cam[id=1]]", resolver=inr,
                       refresh_interval=1.0, lifetime=3.0)
    domain.add_service("[service=cam[id=2]]", resolver=other,
                       refresh_interval=1.0, lifetime=3.0)
    client = domain.add_client(resolver=inr)
    domain.run(3.0)
    client.send_anycast(parse("[service=cam]"), b"x")
    client.send_anycast(parse("[service=nobody]"), b"held or dropped")
    client.send_anycast(parse("[service=far][vspace=elsewhere]"), b"foreign")
    client.resolve_early(parse("[service=cam]"))
    domain.network.add_node("black-hole")
    inr.membership._ping("black-hole", purpose="relax")
    inr.dataplane.remember_vspace("somewhere", other.address)
    inr.stats.lookups += 10_000
    inr.load._claim_candidate(purpose="delegate")
    domain.run(2.0)
    inr.load._claim_candidate(purpose="spawn")  # left in flight by the crash


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_restart_leaves_nothing_of_the_previous_incarnation(feature, monkeypatch):
    monkeypatch.setattr(inr_module, "RELAXATION_INTERVAL", 1.0)
    config = InrConfig(**BASE, **FEATURES[feature])
    domain = InsDomain(seed=300, config=config, dsr_registration_lifetime=3.0,
                       dsr_sweep_interval=0.5)
    first = domain.add_inr(address="inr-first")
    inr = domain.add_inr(address="inr-a")
    _dirty(domain, inr, first)
    fresh = _shapes(domain.add_inr(address="inr-new", settle=0.0))
    # The traffic did leave its mark, so the comparison below has teeth.
    worn = _shapes(inr)
    for component in ("membership", "dataplane", "load"):
        assert worn[component] != fresh[component], component

    inr.crash()
    inr.restart()
    restarted = _shapes(inr)

    if feature == "custody":
        # Restored from what crash() kept: the payload held for the
        # name nobody advertises is still in custody.
        assert len(inr.custody) == 1
        store = restarted["custodian"]["store"][1]
        assert store != fresh["custodian"]["store"][1]
        restarted["custodian"]["store"] = fresh["custodian"]["store"]
    assert restarted == fresh
    assert inr.restarts == 1

    # And it behaves like one: an answer addressed to the previous
    # incarnation's claim finds no claim.
    inr.handle_message(DsrClaimResponse(request_id=1, candidate="black-hole"), "dsr")
    domain.run(5.0)
    assert inr.active and len(inr.neighbors) >= 1
    assert [i.address for i in domain.inrs] == ["inr-first", "inr-a", "inr-new"]
