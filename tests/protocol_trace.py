"""A protocol tracer the tests record whole-domain runs with.

Wraps the network's delivery path and records every datagram as a
structured event, so a test can assert on protocol behaviour (e.g.
"no triggered update was sent after a pure refresh") or compare two
runs datagram by datagram (the differentials against
``tests/literal.py``). :func:`recording` traces the networks a
scenario driver builds inside itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

import repro.experiments.domain as domain_module
from repro.netsim import Network


class TraceOverflow(RuntimeError):
    """A query ran on a trace that overflowed its capacity.

    Events past capacity are counted (``dropped``) but not stored, so
    any aggregate over ``events`` is an undercount. Queries refuse to
    answer rather than return silently-wrong numbers; pass
    ``allow_dropped=True`` to accept the truncated view, or raise
    ``capacity``.
    """


@dataclass(frozen=True)
class TraceEvent:
    """One datagram observed entering the delivery path."""

    time: float
    source: str
    destination: str
    port: int
    kind: str
    size: int
    payload: Any = None


class ProtocolTrace:
    """Records datagrams passing through one network.

    Install with :meth:`attach`; the original send path is preserved.
    ``keep_payloads`` retains payload references (handy in tests,
    heavier in long runs).
    """

    def __init__(self, keep_payloads: bool = False, capacity: int = 100_000) -> None:
        self.events: List[TraceEvent] = []
        #: datagrams observed after ``events`` filled to capacity; any
        #: nonzero value means the stored events are a truncated prefix.
        self.dropped = 0
        self._keep_payloads = keep_payloads
        self._capacity = capacity
        self._network: Optional[Network] = None
        self._original_send: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def attach(self, network: Network) -> "ProtocolTrace":
        if self._network is not None:
            raise RuntimeError("trace is already attached")
        self._network = network
        self._original_send = network.send

        def traced_send(source, destination, port, payload, size_bytes):
            if len(self.events) < self._capacity:
                self.events.append(
                    TraceEvent(
                        time=network.sim.now,
                        source=source,
                        destination=destination,
                        port=port,
                        kind=type(payload).__name__,
                        size=size_bytes,
                        payload=payload if self._keep_payloads else None,
                    )
                )
            else:
                self.dropped += 1
            self._original_send(source, destination, port, payload, size_bytes)

        network.send = traced_send  # type: ignore[method-assign]
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    # Every aggregate refuses to answer over a truncated trace unless
    # the caller opts in: a silently-capped count once hid a refresh
    # storm by reporting exactly ``capacity`` events.
    def _complete(self, allow_dropped: bool) -> None:
        if self.dropped and not allow_dropped:
            raise TraceOverflow(
                f"trace overflowed: {self.dropped} event(s) beyond the "
                f"capacity of {self._capacity} were not recorded; pass "
                "allow_dropped=True for the truncated view or raise "
                "capacity"
            )

    def of_kind(self, kind: str, allow_dropped: bool = False) -> List[TraceEvent]:
        """Events whose payload type name matches ``kind``."""
        self._complete(allow_dropped)
        return [event for event in self.events if event.kind == kind]

    def between(
        self, source: str, destination: str, allow_dropped: bool = False
    ) -> List[TraceEvent]:
        self._complete(allow_dropped)
        return [
            event
            for event in self.events
            if event.source == source and event.destination == destination
        ]

    def since(self, time: float, allow_dropped: bool = False) -> List[TraceEvent]:
        self._complete(allow_dropped)
        return [event for event in self.events if event.time >= time]


@contextmanager
def recording(**options: Any) -> Iterator[List[ProtocolTrace]]:
    """Attach a ``ProtocolTrace(**options)`` to every network an
    ``InsDomain`` builds meanwhile; yields the list of those traces,
    in the order the networks were built."""
    traces: List[ProtocolTrace] = []
    shipped = vars(domain_module)["Network"]

    def build(*args: Any, **kwargs: Any) -> Network:
        network = shipped(*args, **kwargs)
        traces.append(ProtocolTrace(**options).attach(network))
        return network

    domain_module.Network = build
    try:
        yield traces
    finally:
        domain_module.Network = shipped
