"""Tests for spans, the tracer, and span-tree well-formedness."""

from repro.obs import (
    DROP_PREFIX,
    NO_PARENT,
    STATUS_OK,
    STATUS_OPEN,
    TraceContext,
    Tracer,
)

from ..conftest import trace_tree_errors, well_formed_traces


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTracer:
    def test_root_span_starts_a_fresh_trace(self):
        tracer = Tracer(FakeClock())
        a = tracer.start_span("client.request")
        b = tracer.start_span("client.request")
        assert a.parent_span_id == b.parent_span_id == NO_PARENT
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_child_inherits_trace_and_parents_on_the_span(self):
        tracer = Tracer(FakeClock())
        root = tracer.start_span("client.request")
        child = tracer.start_span("inr.hop", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id

    def test_context_reparents_for_the_next_hop(self):
        # The wire context a hop emits names *itself* as the parent, so
        # the next hop's span nests under this one.
        tracer = Tracer(FakeClock())
        root = tracer.start_span("client.request")
        hop1 = tracer.start_span("inr.hop", parent=root.context)
        hop2 = tracer.start_span("inr.hop", parent=hop1.context)
        assert hop2.parent_span_id == hop1.span_id
        assert hop2.trace_id == root.trace_id

    def test_end_span_is_idempotent_first_close_wins(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("inr.hop")
        clock.now = 1.0
        tracer.end_span(span, "forwarded")
        clock.now = 2.0
        tracer.end_span(span, DROP_PREFIX + "hop-limit")
        assert span.status == "forwarded"
        assert span.end == 1.0

    def test_span_lifecycle_and_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("s")
        assert span.status == STATUS_OPEN
        assert span.duration == 0.0
        clock.now = 0.5
        tracer.end_span(span)
        assert span.status == STATUS_OK
        assert span.duration == 0.5

    def test_drop_status_exposes_the_cause(self):
        tracer = Tracer(FakeClock())
        span = tracer.start_span("inr.hop")
        tracer.end_span(span, DROP_PREFIX + "no-route")
        assert span.is_drop
        assert span.drop_cause == "no-route"

    def test_annotations_are_timestamped(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("client.request")
        clock.now = 0.25
        tracer.annotate(span, "attempt 2 -> inr-2")
        assert span.events == [(0.25, "attempt 2 -> inr-2")]

    def test_same_seed_same_operations_same_ids(self):
        def run():
            tracer = Tracer(FakeClock())
            root = tracer.start_span("r")
            tracer.start_span("c", parent=root.context)
            return [(s.trace_id, s.span_id, s.parent_span_id)
                    for s in tracer.spans]

        assert run() == run()


class TestWellFormedness:
    def _tree(self, tracer):
        root = tracer.start_span("client.request")
        hop = tracer.start_span("inr.hop", parent=root.context)
        tracer.end_span(hop)
        tracer.end_span(root)
        return root, hop

    def test_complete_tree_has_no_errors(self):
        tracer = Tracer(FakeClock())
        self._tree(tracer)
        assert trace_tree_errors(tracer.spans) == []
        assert well_formed_traces(tracer.spans) == {}

    def test_duplicated_packet_yields_sibling_spans_not_a_defect(self):
        # A duplicated datagram is processed twice: two hop spans with
        # the same parent. That is the true causal history, not an error.
        tracer = Tracer(FakeClock())
        root = tracer.start_span("client.request")
        for _ in range(2):
            tracer.end_span(tracer.start_span("inr.hop", parent=root.context))
        tracer.end_span(root)
        assert trace_tree_errors(tracer.spans) == []

    def test_reordered_spans_still_form_the_tree(self):
        # Reordering delays packets, so a child may start (and be listed)
        # after a sibling that was sent later; tree shape is id-based,
        # not order-based.
        clock = FakeClock()
        tracer = Tracer(clock)
        root = tracer.start_span("client.request")
        clock.now = 2.0  # the held-back packet processed late
        late = tracer.start_span("inr.hop", parent=root.context)
        tracer.end_span(late)
        assert trace_tree_errors(tracer.spans) == []

    def test_missing_parent_detected(self):
        tracer = Tracer(FakeClock())
        orphan = tracer.start_span(
            "inr.hop", parent=TraceContext(trace_id=9, span_id=99,
                                           parent_span_id=NO_PARENT)
        )
        errors = trace_tree_errors([orphan])
        assert any("unknown parent" in error for error in errors)

    def test_multiple_roots_detected(self):
        tracer = Tracer(FakeClock())
        a = tracer.start_span("r1")
        b = tracer.start_span("r2")
        errors = trace_tree_errors([a, b])
        assert any("exactly one root" in error for error in errors)

    def test_empty_trace_detected(self):
        assert trace_tree_errors([]) == ["trace has no spans"]
