"""Tests for the span/metric exporters."""

import json

from repro.obs import (
    DROP_PREFIX,
    MetricsRegistry,
    Tracer,
    spans_to_jsonl,
    summarize_spans,
    to_chrome_trace,
    write_canonical_json,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_trace():
    """One finished two-hop trace plus one dropped single-hop trace."""
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.start_span("client.request", node="client-1")
    clock.now = 0.001
    hop = tracer.start_span("inr.hop", node="inr-1", parent=root.context)
    clock.now = 0.002
    tracer.end_span(hop, "forwarded")
    clock.now = 0.003
    tracer.end_span(root)
    dropped_root = tracer.start_span("client.request", node="client-2")
    drop = tracer.start_span("inr.hop", node="inr-1",
                             parent=dropped_root.context)
    tracer.end_span(drop, DROP_PREFIX + "no-route")
    tracer.end_span(dropped_root, "timeout")
    return tracer


class TestJsonl:
    def test_one_sorted_object_per_line_in_start_order(self):
        tracer = make_trace()
        lines = spans_to_jsonl(tracer.spans).splitlines()
        assert len(lines) == 4
        decoded = [json.loads(line) for line in lines]
        starts = [(d["start"], d["span_id"]) for d in decoded]
        assert starts == sorted(starts)
        for d in decoded:
            assert list(d) == sorted(d)

    def test_byte_identical_across_identical_traces(self):
        assert spans_to_jsonl(make_trace().spans) == \
            spans_to_jsonl(make_trace().spans)


class TestChromeTrace:
    def test_schema_and_node_rows(self):
        tracer = make_trace()
        trace = to_chrome_trace(tracer.spans)
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"client-1", "client-2", "inr-1"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_microsecond_timestamps(self):
        tracer = make_trace()
        complete = [e for e in to_chrome_trace(tracer.spans)["traceEvents"]
                    if e["ph"] == "X" and e["name"] == "inr.hop"
                    and e["args"]["status"] == "forwarded"]
        assert complete[0]["ts"] == 1000.0  # 0.001 s
        assert complete[0]["dur"] == 1000.0

    def test_unfinished_span_flagged_not_dropped(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.start_span("stuck", node="inr-1")
        events = [e for e in to_chrome_trace(tracer.spans)["traceEvents"]
                  if e["ph"] == "X"]
        assert events[0]["args"]["unfinished"] is True


class TestSummarize:
    def test_counts_percentiles_and_drop_attribution(self):
        tracer = make_trace()
        summary = summarize_spans(tracer.spans)
        assert summary["spans"] == 4
        assert summary["traces"] == 2
        assert summary["max_spans_per_trace"] == 2
        assert summary["by_name"]["inr.hop"]["count"] == 2
        assert summary["drop_attribution"] == {"no-route": 1}

    def test_empty_input(self):
        summary = summarize_spans([])
        assert summary["spans"] == 0
        assert summary["traces"] == 0
        assert summary["drop_attribution"] == {}


class TestMetricsJson:
    def test_registry_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("inr.packets_routed").inc(5.0, inr="inr-1")
        path = tmp_path / "metrics.json"
        write_canonical_json(path, registry.snapshot())
        decoded = json.loads(path.read_text())
        assert decoded["counters"]["inr.packets_routed"]["inr=inr-1"] == 5.0
