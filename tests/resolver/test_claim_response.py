"""A ``DsrClaimResponse`` spawns a resolver only when it answers the one
candidate claim this incarnation has in flight.

Before ``LoadControl`` remembered its claim, any claim response — one
nobody asked for, a link-level duplicate, the answer to a claim a crashed
incarnation made — ran the spawner, and the second one for the same
candidate raised ``port already bound`` out of the simulator loop.
"""

from repro.experiments import InsDomain
from repro.experiments.domain import DSR_HOST
from repro.message import DsrClaimResponse
from repro.resolver import InrConfig

from ..protocol_trace import ProtocolTrace


def _domain(seed):
    domain = InsDomain(
        seed=seed, config=InrConfig(spawn_lookup_rate=100.0, refresh_interval=1e6)
    )
    inr = domain.add_inr(address="inr-main")
    domain.add_candidate("spare-1")
    domain.settle()
    return domain, inr


def _overload_and_check(inr):
    """What the load-check timer does in a window of 10,000 lookups."""
    inr.stats.lookups += 10_000
    inr.load.check()


def test_an_unsolicited_claim_response_spawns_nothing():
    domain, inr = _domain(seed=81)
    inr.handle_message(DsrClaimResponse(request_id=999, candidate="spare-1"), DSR_HOST)
    inr.handle_message(DsrClaimResponse(request_id=999, candidate="spare-1"), DSR_HOST)
    domain.run(1.0)
    assert [i.address for i in domain.inrs] == ["inr-main"]


def test_a_duplicated_claim_response_spawns_exactly_once():
    domain, inr = _domain(seed=82)
    trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
    _overload_and_check(inr)
    domain.run(1.0)
    assert [i.address for i in domain.inrs] == ["inr-main", "spare-1"]
    (answer,) = [e for e in trace.events if e.kind == "DsrClaimResponse"]
    # What a ``duplicate_rate > 0`` link to the DSR delivers: it again.
    domain.network.send(
        answer.source, answer.destination, answer.port, answer.payload, answer.size
    )
    domain.run(1.0)  # used to raise "port 5678 already bound on spare-1"
    assert [i.address for i in domain.inrs] == ["inr-main", "spare-1"]
    assert "spare-1" in domain.dsr.active_inrs


def test_a_claim_can_be_made_again_once_the_first_is_answered():
    domain, inr = _domain(seed=83)
    domain.add_candidate("spare-2")
    _overload_and_check(inr)
    _overload_and_check(inr)  # still waiting: no second claim goes out
    domain.run(1.0)
    assert [i.address for i in domain.inrs] == ["inr-main", "spare-1"]
    _overload_and_check(inr)
    domain.run(1.0)
    assert [i.address for i in domain.inrs] == ["inr-main", "spare-1", "spare-2"]


def test_the_answer_to_a_claim_made_before_a_crash_is_ignored_after_restart():
    domain, inr = _domain(seed=84)
    _overload_and_check(inr)  # the claim is on its way to the DSR
    inr.crash()
    inr.restart()
    domain.run(1.0)  # the answer reaches an incarnation that claimed nothing
    assert [i.address for i in domain.inrs] == ["inr-main"]
    assert inr.restarts == 1 and inr.active
