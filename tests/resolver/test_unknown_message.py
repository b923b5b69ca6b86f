"""Regression: unknown payload types must not vanish uncounted.

``INR.handle_message`` looks the payload's type up in a dispatch table
(it was an isinstance elif-chain); before the terminal arm existed, a
payload type nothing recognized was silently swallowed — no counter,
no span, invisible to traces and stats alike.
"""

from repro.experiments import InsDomain
from repro.obs import TraceContext


class BogusPayload:
    """A payload type no dispatch arm recognizes."""

    def __init__(self, trace=None):
        self.trace = trace


def test_unknown_payload_is_counted():
    domain = InsDomain(seed=3)
    inr = domain.add_inr(address="inr-a")
    domain.run(0.5)
    before = inr.stats.packets_dropped
    inr.handle_message(BogusPayload(), "stranger")
    assert inr.stats.drops_unknown_message == 1
    assert inr.stats.packets_dropped == before + 1
    assert inr.stats.drops_by_cause()["unknown-message"] == 1
    snapshot = inr.stats.snapshot()
    assert snapshot["drops_unknown_message"] == 1


def test_unknown_payload_ends_hop_span_with_drop_status():
    domain = InsDomain(seed=3)
    inr = domain.add_inr(address="inr-a")
    collector = domain.observe()
    domain.run(0.5)
    context = TraceContext(trace_id=77, span_id=5)
    inr.handle_message(BogusPayload(trace=context), "stranger")
    spans = [s for s in collector.tracer.spans if s.name == "inr.hop"]
    assert len(spans) == 1
    (span,) = spans
    assert span.status == "drop:unknown-message"
    assert span.trace_id == 77
    assert span.tags["payload_type"] == "BogusPayload"


def test_untraced_unknown_payload_opens_no_span():
    domain = InsDomain(seed=3)
    inr = domain.add_inr(address="inr-a")
    collector = domain.observe()
    domain.run(0.5)
    span_count = len(collector.tracer.spans)
    inr.handle_message(BogusPayload(), "stranger")
    assert inr.stats.drops_unknown_message == 1
    assert len(collector.tracer.spans) == span_count
