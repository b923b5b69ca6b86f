"""Tests for the client request-resilience layer.

Retry/backoff under deterministic netsim packet loss, failure of every
attempt, deadlines, failover away from a silent resolver, and the two
attachment-machinery fixes (ping-token purge, reselect restore).
"""

import pytest

from repro.client import (
    DeadlineExceeded,
    RequestTimeout,
    RetryPolicy,
    Reply,
)
from repro.client import api
from repro.experiments import InsDomain

from ..conftest import parse

NAME = parse("[service=printer]")

FAST = RetryPolicy(request_timeout=0.3, backoff_max=1.0, deadline=5.0)


@pytest.fixture
def fast(monkeypatch):
    """The attempt budget that goes with ``FAST``."""
    monkeypatch.setattr(api, "MAX_ATTEMPTS", 3)


def printer_domain(seed, retry_policy=FAST, n_inrs=1):
    domain = InsDomain(seed=seed)
    inrs = [domain.add_inr() for _ in range(n_inrs)]
    domain.add_service(NAME, resolver=inrs[0])
    client = domain.add_client(resolver=inrs[0], retry_policy=retry_policy)
    domain.run(1.0)
    return domain, inrs, client


class TestRetry:
    @pytest.mark.usefixtures("fast")
    def test_lossless_request_uses_one_attempt(self):
        domain, _inrs, client = printer_domain(seed=700)
        reply = client.resolve_early(NAME)
        domain.run(1.0)
        assert reply.done
        assert client.stats.attempts_sent == 1
        assert client.stats.retries == 0

    def test_retries_through_packet_loss(self, monkeypatch):
        """On a very lossy link the request eventually lands anyway —
        the whole point of retransmission."""
        monkeypatch.setattr(api, "MAX_ATTEMPTS", 6)
        monkeypatch.setattr(api, "FAILOVER_THRESHOLD", 1000)
        domain, inrs, client = printer_domain(
            seed=701,
            retry_policy=RetryPolicy(
                request_timeout=0.3, backoff_max=1.0, deadline=6.0
            ),
        )
        domain.network.configure_link(client.address, inrs[0].address,
                                      loss_rate=0.4)
        succeeded = 0
        retried = 0
        for _ in range(10):
            reply = client.resolve_early(NAME)
            domain.run(6.0)
            if reply.done:
                succeeded += 1
        retried = client.stats.retries
        assert succeeded >= 8
        assert retried > 0
        assert client.pending_requests == 0

    @pytest.mark.usefixtures("fast")
    def test_retry_is_deterministic(self):
        """Same seed, same loss pattern, same retry counts."""
        outcomes = []
        for _ in range(2):
            domain, inrs, client = printer_domain(seed=702)
            domain.network.configure_link(client.address, inrs[0].address,
                                          loss_rate=0.5)
            replies = [client.resolve_early(NAME) for _ in range(5)]
            domain.run(10.0)
            outcomes.append(
                (tuple(r.done for r in replies),
                 client.stats.attempts_sent, client.stats.retries)
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.usefixtures("fast")
    def test_all_attempts_lost_fails_with_timeout(self):
        domain, inrs, client = printer_domain(seed=703)
        domain.network.link(client.address, inrs[0].address).up = False
        errors = []
        reply = client.resolve_early(NAME)
        reply.on_error(errors.append)
        domain.run(10.0)
        assert reply.failed
        assert isinstance(reply.error, RequestTimeout)
        assert len(errors) == 1
        assert client.stats.requests_failed == 1
        assert client.stats.attempts_sent == api.MAX_ATTEMPTS == 3
        assert client.pending_requests == 0

    def test_deadline_caps_the_whole_request(self):
        """With attempts to spare, the deadline still wins: four 0.4 s
        attempts outlast a 1 s deadline."""
        policy = RetryPolicy(request_timeout=0.4, backoff_max=0.4, deadline=1.0)
        domain, inrs, client = printer_domain(seed=704, retry_policy=policy)
        domain.network.link(client.address, inrs[0].address).up = False
        reply = client.resolve_early(NAME)
        issued = domain.now
        domain.run(10.0)
        assert reply.failed
        assert isinstance(reply.error, DeadlineExceeded)
        assert client.stats.deadline_exceeded == 1
        assert reply.deadline == pytest.approx(issued + policy.deadline)

    def test_disabled_policy_is_fire_and_forget(self):
        domain, inrs, client = printer_domain(
            seed=705, retry_policy=RetryPolicy.disabled()
        )
        domain.network.link(client.address, inrs[0].address).up = False
        reply = client.resolve_early(NAME)
        domain.run(20.0)
        assert not reply.settled  # hangs forever: the pre-resilience mode
        assert client.stats.attempts_sent == 1


class TestFailover:
    def test_consecutive_timeouts_fail_over_to_another_inr(self, monkeypatch):
        """A silently crashed resolver is abandoned: the client
        reattaches through the DSR, excluding the suspect, and later
        requests succeed at the new resolver."""
        monkeypatch.setattr(api, "MAX_ATTEMPTS", 8)
        monkeypatch.setattr(api, "FAILOVER_THRESHOLD", 2)
        domain = InsDomain(seed=710)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        domain.add_service(NAME, resolver=a)
        client = domain.add_client(
            resolver=b,
            retry_policy=RetryPolicy(
                request_timeout=0.3, backoff_max=1.0, deadline=8.0
            ),
        )
        domain.run(3.0)  # let the advertisement propagate a->b

        domain.crash_inr(b)
        reply = client.resolve_early(NAME)
        domain.run(10.0)
        assert client.stats.failovers >= 1
        assert client.resolver == "inr-a"
        # The in-flight request survived the failover via re-attempts.
        assert reply.done
        late = client.resolve_early(NAME)
        domain.run(2.0)
        assert late.done

class TestAttachmentFixes:
    def test_ping_tokens_purged_when_selection_round_completes(self):
        """Unanswered INR-pings must not pin table entries forever
        (the unbounded _ping_sent growth bug)."""
        domain = InsDomain(seed=720)
        domain.add_inr(address="inr-live")
        dead = domain.add_inr(address="inr-dead")
        dead.crash()
        client = domain.add_client()
        domain.run(3.0)
        assert client.attached.done
        assert client.resolver == "inr-live"
        # The dead INR's ping went unanswered; the round still closed
        # and dropped its token.
        assert len(client._ping_sent) == 0

    @pytest.mark.usefixtures("fast")
    def test_reselect_timeout_restores_previous_attachment(self):
        """A reselection round that dies on a lost datagram must not
        leave the client detached while its old resolver still works."""
        domain = InsDomain(seed=721)
        inr = domain.add_inr()
        client = domain.add_client(reselect_interval=5.0, retry_policy=FAST)
        domain.run(2.0)
        assert client.resolver == inr.address
        previous_attached = client.attached
        # Cut the client off from the DSR: the next reselect's list
        # request can never be answered.
        domain.network.link(client.address, "dsr-host").up = False
        domain.run(10.0)
        assert client.attached.done
        assert client.resolver == inr.address
        assert client.attached is previous_attached
        # And the restored attachment still serves requests.
        domain.add_service(NAME, resolver=inr)
        domain.run(1.0)
        reply = client.resolve_early(NAME)
        domain.run(2.0)
        assert reply.done
