"""The per-run observability collector: one tracer, two metric dicts.

An :class:`ObsCollector` is what an experiment or chaos run attaches to
a domain (``InsDomain.observe()`` wires it to every current and future
INR and client). It owns the :class:`~.span.Tracer` instrumented code
records spans into, and the ``counters`` and ``gauges`` a harvest files
the per-component stats into, labelled.

This module deliberately imports nothing from the higher layers —
harvesting is duck-typed over the domain object — so ``obs`` stays at
the bottom of the layer DAG, beside ``message``, importable from
everywhere above.
"""

from __future__ import annotations

from typing import Callable, Dict

from .export import summarize_spans
from .metrics import label_text, stats_fields
from .span import Tracer

#: ``{family: {label text: value}}``; every value is a float
Families = Dict[str, Dict[str, float]]

#: the family :meth:`ObsCollector.profile_simulator` counts events into
EVENTS = "sim.events"


def _file(counters: Families, prefix: str, snapshot, **labels: object) -> None:
    """Add a stats snapshot's counts to ``counters`` as ``prefix.field``
    under ``labels``; a nested mapping's inner key becomes a ``cause``
    label."""
    for field_name, inner, value in stats_fields(snapshot):
        key = label_text(**labels) if inner is None else label_text(cause=inner, **labels)
        family = counters.setdefault(f"{prefix}.{field_name}", {})
        family[key] = family.get(key, 0.0) + value


class ObsCollector:
    """Trace + metric collection for one run."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.tracer = Tracer(clock)
        self.counters: Families = {}
        self.gauges: Families = {}

    # ------------------------------------------------------------------
    # Simulator profiling hook
    # ------------------------------------------------------------------
    def profile_simulator(self, sim) -> None:
        """Install the per-event profiling hook on a ``Simulator``.

        Every fired event increments ``sim.events`` labelled by the
        callback's qualified name — which protocol activity dominates a
        run becomes a one-snapshot question. The hook costs one dict
        update per event when installed and nothing when absent.
        """
        events = self.counters.setdefault(EVENTS, {})

        def on_event(event) -> None:
            # netsim's [time, sequence, callback, args] entry, its slots
            # named by unpacking: obs imports no other layer
            _time, _sequence, callback, _args = event
            label = getattr(callback, "__qualname__", None)
            if label is None:
                label = type(callback).__name__
            key = label_text(callback=label)
            events[key] = events.get(key, 0.0) + 1.0

        sim.event_hook = on_event

    # ------------------------------------------------------------------
    # Harvesting component stats
    # ------------------------------------------------------------------
    def harvest_domain(self, domain) -> None:
        """File a domain's per-component stats, labelled.

        Duck-typed over :class:`~repro.experiments.domain.InsDomain`:
        INR counters gain an ``inr`` label (drop causes additionally a
        ``cause`` label via ``drops_by_cause``), per-vspace name counts
        become the ``inr.names`` gauge, client counters gain a
        ``client`` label, link counters a ``link`` label. Two INRs at
        one address (a node spawned onto again) sum under one label,
        and the gauge keeps the last one's names. Each harvest rebuilds
        these families, so harvesting twice files the same numbers.
        """
        counters: Families = {}
        if EVENTS in self.counters:
            counters[EVENTS] = self.counters[EVENTS]
        gauges: Families = {}
        for inr in domain.inrs:
            _file(counters, "inr", inr.stats.snapshot(), inr=inr.address)
            names = gauges.setdefault("inr.names", {})
            for vspace in sorted(inr.trees):
                names[label_text(inr=inr.address, vspace=vspace)] = float(
                    inr.name_count(vspace)
                )
        for client in domain.clients:
            _file(
                counters,
                "client",
                client.stats.snapshot(),
                client=f"{client.address}:{client.port}",
            )
        for (a, b), link in sorted(domain.network.links):
            _file(counters, "link", link.stats.snapshot(), link=f"{a}|{b}")
        self.counters = counters
        self.gauges = gauges

    # ------------------------------------------------------------------
    # Snapshots and summaries
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Every family, by kind; the ``histograms`` group stays, always
        empty: it is part of the snapshot every committed ``BENCH_*``
        file embeds."""
        return {
            "counters": {name: dict(family) for name, family in self.counters.items()},
            "gauges": {name: dict(family) for name, family in self.gauges.items()},
            "histograms": {},
        }

    def span_summary(self) -> dict:
        return summarize_spans(self.tracer.spans)

    def observability_payload(self) -> dict:
        """The ``observability`` section a BENCH artifact embeds."""
        return {
            "span_summary": self.span_summary(),
            "metrics": self.metrics_snapshot(),
        }
