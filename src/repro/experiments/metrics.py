"""Time-series sampling of resolver and link state during experiments.

Experiments that care about *when* something happens (spawn timelines,
utilization ramps) need periodic samples, not just end-of-run totals.
:class:`DomainSampler` rides the simulator's event loop and records one
row per interval for every live INR: CPU utilization over the interval,
name count, cumulative lookups, and inter-INR traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .domain import InsDomain


@dataclass(frozen=True)
class ResolverSample:
    """One resolver's state over one sampling interval."""

    time: float
    address: str
    cpu_utilization: float
    names: int
    lookups: int
    neighbors: int


class DomainSampler:
    """Periodic sampler for a whole :class:`InsDomain`."""

    def __init__(self, domain: InsDomain, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.domain = domain
        self.interval = interval
        self.samples: List[ResolverSample] = []
        self._busy_at_last: Dict[str, float] = {}
        self._running = False

    def start(self) -> "DomainSampler":
        """Begin sampling; safe to call once."""
        if self._running:
            raise RuntimeError("sampler already running")
        self._running = True
        self._schedule_next()
        return self

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if self._running:
            self.domain.sim.schedule(self.interval, self._take_sample)

    def _take_sample(self) -> None:
        if not self._running:
            return
        now = self.domain.now
        for inr in self.domain.inrs:
            if inr._terminated:
                continue
            cpu = inr.node.cpu
            busy_before = self._busy_at_last.get(inr.address, 0.0)
            utilization = (cpu.busy_seconds - busy_before) / self.interval
            self._busy_at_last[inr.address] = cpu.busy_seconds
            self.samples.append(
                ResolverSample(
                    time=now,
                    address=inr.address,
                    cpu_utilization=utilization,
                    names=inr.name_count(),
                    lookups=inr.stats.lookups,
                    neighbors=len(inr.neighbors),
                )
            )
        self._schedule_next()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def series(self, address: str) -> List[ResolverSample]:
        """All samples for one resolver, in time order."""
        return [s for s in self.samples if s.address == address]
