"""The process abstraction protocol code runs as.

A :class:`Process` lives on a node, is bound to a port, receives
datagrams through :meth:`handle_message` (after the node's CPU has
charged :meth:`processing_cost`), and owns timers. INRs, the DSR,
services and clients are all processes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .network import Network, Node
from .simulator import CALLBACK, TIME, Simulator, cancel


#: ``Process._timers`` is first swept of dead one-shot timers at this
#: length (and then whenever it has doubled since the last sweep).
_TIMER_SWEEP_FLOOR = 64


class PeriodicTimer:
    """A repeating timer with optional multiplicative jitter.

    Jitter desynchronizes periodic protocol traffic (soft-state refresh
    floods) the way real deployments drift apart; a fraction of 0.1
    means each period is drawn uniformly from [0.9, 1.1] x interval.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        jitter_fraction: float = 0.0,
        fire_immediately: bool = False,
    ) -> None:
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError(f"jitter fraction must be in [0, 1), got {jitter_fraction}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        #: half-width of the jitter window, in seconds (0: no jitter)
        self._spread = spread = jitter_fraction * interval
        self._stopped = False
        delay = 0.0
        if not fire_immediately:
            delay = interval + sim.rng.uniform(-spread, spread) if spread else interval
        self._event = sim.at(sim.now + delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if self._stopped:
            return
        # Re-armed here, not in a helper: every periodic timer of the
        # domain passes through this frame once a period.
        sim = self._sim
        spread = self._spread
        delay = (
            self.interval + sim.rng.uniform(-spread, spread) if spread
            else self.interval
        )
        self._event = sim.at(sim.now + delay, self._fire)

    def stop(self) -> None:
        """Cancel the timer; no further firings."""
        self._stopped = True
        cancel(self._event)

    @property
    def stopped(self) -> bool:
        return self._stopped


class Process:
    """Base class for everything that runs on a simulated node."""

    def __init__(self, node: Node, port: int) -> None:
        self.node = node
        self.port = port
        #: a node never changes network, nor a network its simulator
        self.network: Network = node.network
        self.sim: Simulator = node.network.sim
        node.bind(port, self)
        self._timers: list = []
        self._timers_sweep_at = _TIMER_SWEEP_FLOOR

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The node's current network address (may change on mobility)."""
        return self.node.address

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Hook for subclasses: called once the process should go live."""

    def stop(self) -> None:
        """Cancel timers and unbind from the node's port."""
        for timer in self._timers:
            if isinstance(timer, PeriodicTimer):
                timer.stop()
            else:
                cancel(timer)
        self._timers = []
        self.node.unbind(self.port)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        destination: str,
        port: int,
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Send a datagram from this node.

        ``size_bytes`` defaults to the payload's ``wire_size()`` when it
        provides one, else zero (pure control messages in tests).
        """
        if size_bytes is None:
            sizer = getattr(payload, "wire_size", None)
            size_bytes = int(sizer()) if callable(sizer) else 0
        self.network.send(self.node.address, destination, port, payload, size_bytes)

    def processing_cost(self, payload: Any, size_bytes: int) -> float:
        """CPU seconds charged before :meth:`handle_message` runs."""
        return 0.0

    def admit(self, payload: Any, source: str) -> bool:
        """The door every arriving datagram passes before its CPU work
        is queued. It admits everything — nothing in the system sheds
        load — and is kept only because the whole-domain benchmark's
        ledger wraps ``INR.admit``."""
        return True

    def handle_message(self, payload: Any, source: str) -> None:
        """Receive a datagram; subclasses override."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> list:
        """One-shot timer; returns the event, which ``cancel`` takes."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sim = self.sim
        event = sim.at(sim.now + delay, callback, *args)
        timers = self._timers
        timers.append(event)
        if len(timers) >= self._timers_sweep_at:
            # stop() needs only the timers that can still fire. A
            # one-shot event that was cancelled, or whose time has
            # passed (so it fired), is dead weight — and a request
            # timeout per op adds up. Sweeping each time the list has
            # doubled is amortized O(1) per timer and bounds the list
            # at twice the live timers.
            now = sim.now
            timers[:] = [
                timer for timer in timers
                if isinstance(timer, PeriodicTimer)
                or not (timer[CALLBACK] is None or timer[TIME] < now)
            ]
            self._timers_sweep_at = max(_TIMER_SWEEP_FLOOR, 2 * len(timers))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter_fraction: float = 0.0,
        fire_immediately: bool = False,
    ) -> PeriodicTimer:
        """Repeating timer; returns it for :meth:`PeriodicTimer.stop`."""
        timer = PeriodicTimer(
            self.sim,
            interval,
            callback,
            jitter_fraction=jitter_fraction,
            fire_immediately=fire_immediately,
        )
        self._timers.append(timer)
        return timer

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node={self.address}, port={self.port})"
