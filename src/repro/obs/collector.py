"""The per-run observability collector: one tracer + one registry.

An :class:`ObsCollector` is what an experiment or chaos run attaches to
a domain (``InsDomain.observe()`` wires it to every current and future
INR and client). It owns the :class:`~.span.Tracer` instrumented code
records spans into, the :class:`~.metrics.MetricsRegistry` snapshots
are read from, and the harvesting glue that absorbs the per-component
stats dataclasses into the registry with labels.

This module deliberately imports nothing from the higher layers —
harvesting is duck-typed over the domain object — so ``obs`` stays at
the bottom of the layer DAG, beside ``message``, importable from
everywhere above.
"""

from __future__ import annotations

from typing import Callable

from .export import summarize_spans
from .metrics import MetricsRegistry
from .span import Tracer


class ObsCollector:
    """Trace + metric collection for one run."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.tracer = Tracer(clock)
        self.registry = MetricsRegistry()

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
        events = self.registry.counter(
            "sim.events", help="events fired, by callback"
        )

        def on_event(event) -> None:
            # netsim's [time, sequence, callback, args] entry, its slots
            # named by unpacking: obs imports no other layer
            _time, _sequence, callback, _args = event
            label = getattr(callback, "__qualname__", None)
            if label is None:
                label = type(callback).__name__
            events.inc(callback=label)

        sim.event_hook = on_event

    # ------------------------------------------------------------------
    # Harvesting component stats into the registry
    # ------------------------------------------------------------------
    def harvest_domain(self, domain) -> None:
        """Absorb a domain's per-component stats, labelled.

        Duck-typed over :class:`~repro.experiments.domain.InsDomain`:
        INR counters gain an ``inr`` label (drop causes additionally a
        ``cause`` label via ``drops_by_cause``), per-vspace name counts
        become gauges, client counters gain a ``client`` label, link
        counters a ``link`` label. Safe to call repeatedly only on
        fresh registries; harvest once, at the end of a run.
        """
        for inr in domain.inrs:
            self.registry.ingest(
                "inr", inr.stats.snapshot(), inr=inr.address
            )
            names = self.registry.gauge(
                "inr.names", help="live names per vspace"
            )
            for vspace in sorted(inr.trees):
                names.set(
                    float(inr.name_count(vspace)),
                    inr=inr.address,
                    vspace=vspace,
                )
        for client in domain.clients:
            self.registry.ingest(
                "client",
                client.stats.snapshot(),
                client=f"{client.address}:{client.port}",
            )
        for (a, b), link in sorted(domain.network.links):
            self.registry.ingest(
                "link", link.stats.snapshot(), link=f"{a}|{b}"
            )

    # ------------------------------------------------------------------
    # Snapshots and summaries
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        return self.registry.snapshot()

    def span_summary(self) -> dict:
        return summarize_spans(self.tracer.spans)

    def observability_payload(self) -> dict:
        """The ``observability`` section a BENCH artifact embeds."""
        return {
            "span_summary": self.span_summary(),
            "metrics": self.metrics_snapshot(),
        }
