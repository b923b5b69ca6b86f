"""Deterministic fault plans and the controller that executes them.

A :class:`FaultPlan` is a fixed timeline of fault events — who crashes
when, which links flap, when the DSR fails over — generated up front
from a seed so a chaos run is exactly reproducible: the same seed over
the same topology yields the same timeline, and the simulator's own
seeded RNG makes everything downstream of each fault deterministic too.

:class:`ChaosController` schedules the plan's events into a running
:class:`~repro.experiments.domain.InsDomain`, applies each fault
through the domain's chaos hooks, and (when given a
:class:`~repro.chaos.recovery.RecoveryTracker`) opens a recovery watch
per fault so MTTR can be measured from injection to reconvergence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.domain import InsDomain
from .recovery import RecoveryTracker

#: Every fault kind the chaos vocabulary knows. "link-down"/"link-up"
#: model a flap of one link; "partition"/"heal" cut whole node groups;
#: "link-faults" turns on the netsim loss/duplication/reordering
#: primitives for a link; "cpu-degrade"/"cpu-restore" slow one node.
FAULT_KINDS = (
    "crash-inr",
    "restart-inr",
    "link-down",
    "link-up",
    "partition",
    "heal",
    "dsr-failover",
    "cpu-degrade",
    "cpu-restore",
    "link-faults",
)

#: Seconds a flapped link stays down, and a noisy one noisy.
FLAP_LENGTH = 8.0

#: A duty-cycled link's cycle starts up to this many periods late.
PHASE_JITTER = 0.3


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is an INR/node address for node faults, an ``(a, b)``
    pair for link faults, or two address groups for partitions.
    ``params`` carries kind-specific numbers (rates, factors).
    """

    at: float
    kind: str
    target: object = None
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at}")

    def param(self, name: str, default: float = 0.0) -> float:
        return dict(self.params).get(name, default)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted fault timeline."""

    events: Tuple[FaultEvent, ...]
    duration: float

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({event.kind for event in self.events}))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def build(cls, events: Sequence[FaultEvent]) -> "FaultPlan":
        ordered = tuple(sorted(events, key=lambda e: (e.at, e.kind, str(e.target))))
        duration = max((e.at for e in ordered), default=0.0)
        return cls(events=ordered, duration=duration)

    # ------------------------------------------------------------------
    # Seed-driven generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        inr_addresses: Sequence[str],
        link_pairs: Sequence[Tuple[str, str]] = (),
        duration: float = 60.0,
        crash_fraction: float = 0.3,
        flap_fraction: float = 0.2,
        restart_after: Optional[float] = 10.0,
        dsr_failover: bool = False,
        cpu_degrade_fraction: float = 0.0,
        cpu_degrade_factor: float = 0.25,
        cpu_degrade_length: float = 10.0,
        link_fault_fraction: float = 0.0,
        duplicate_rate: float = 0.1,
        reorder_rate: float = 0.1,
        loss_rate: float = 0.0,
    ) -> "FaultPlan":
        """Generate a deterministic chaos timeline from ``seed``.

        Fault injection times land in the first 60% of ``duration`` so
        every fault has room to be detected and recovered from before
        the run ends. ``restart_after=None`` leaves crashed INRs down.
        A flapped link and a noisy one recover ``FLAP_LENGTH`` seconds
        after the fault.
        """
        rng = random.Random(seed)
        inrs = sorted(inr_addresses)
        links = sorted(tuple(sorted(pair)) for pair in link_pairs)
        window = duration * 0.6
        events: List[FaultEvent] = []

        def pick(population: Sequence, fraction: float) -> List:
            count = min(len(population), math.ceil(len(population) * fraction))
            return rng.sample(population, count) if count else []

        for address in pick(inrs, crash_fraction):
            crash_at = rng.uniform(duration * 0.05, window)
            events.append(FaultEvent(at=crash_at, kind="crash-inr", target=address))
            if restart_after is not None:
                events.append(
                    FaultEvent(
                        at=crash_at + restart_after,
                        kind="restart-inr",
                        target=address,
                    )
                )
        for pair in pick(links, flap_fraction):
            down_at = rng.uniform(duration * 0.05, window)
            events.append(FaultEvent(at=down_at, kind="link-down", target=pair))
            events.append(
                FaultEvent(at=down_at + FLAP_LENGTH, kind="link-up", target=pair)
            )
        if dsr_failover:
            events.append(
                FaultEvent(
                    at=rng.uniform(duration * 0.05, window), kind="dsr-failover"
                )
            )
        for address in pick(inrs, cpu_degrade_fraction):
            slow_at = rng.uniform(duration * 0.05, window)
            events.append(
                FaultEvent(
                    at=slow_at,
                    kind="cpu-degrade",
                    target=address,
                    params=(("factor", cpu_degrade_factor),),
                )
            )
            events.append(
                FaultEvent(
                    at=slow_at + cpu_degrade_length,
                    kind="cpu-restore",
                    target=address,
                )
            )
        for pair in pick(links, link_fault_fraction):
            noisy_at = rng.uniform(duration * 0.05, window)
            events.append(
                FaultEvent(
                    at=noisy_at,
                    kind="link-faults",
                    target=pair,
                    params=(
                        ("duplicate_rate", duplicate_rate),
                        ("reorder_rate", reorder_rate),
                        ("loss_rate", loss_rate),
                    ),
                )
            )
            events.append(
                FaultEvent(
                    at=noisy_at + FLAP_LENGTH,
                    kind="link-faults",
                    target=pair,
                    params=(
                        ("duplicate_rate", 0.0),
                        ("reorder_rate", 0.0),
                        ("loss_rate", 0.0),
                    ),
                )
            )
        plan = cls.build(events)
        return cls(events=plan.events, duration=duration)

    @classmethod
    def duty_cycle(
        cls,
        seed: int,
        link_pairs: Sequence[Tuple[str, str]],
        start: float,
        end: float,
        period: float = 10.0,
        duty: float = 0.5,
    ) -> "FaultPlan":
        """Duty-cycled links: the disruption-tolerance workload.

        Every link in ``link_pairs`` repeats an up-for-``duty``,
        down-for-the-rest cycle of ``period`` seconds between ``start``
        and ``end`` — the intermittent-connectivity regime (power-cycled
        radios, mobile nodes drifting in and out of range) that custody
        transfer is built for. Each link gets a seed-deterministic phase
        offset of up to ``PHASE_JITTER`` periods so cycles do not
        phase-lock across links. Cycles only begin where the full
        period fits before ``end``, so the last event for every link is
        its ``link-up`` — a plan never strands a link down.
        """
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        if period <= 0 or end <= start:
            raise ValueError("need a positive period and end > start")
        rng = random.Random(seed)
        links = sorted(tuple(sorted(pair)) for pair in link_pairs)
        events: List[FaultEvent] = []
        for pair in links:
            t = start + rng.uniform(0.0, period * PHASE_JITTER)
            while t + period <= end:
                events.append(
                    FaultEvent(
                        at=t + period * duty, kind="link-down", target=pair
                    )
                )
                events.append(
                    FaultEvent(at=t + period, kind="link-up", target=pair)
                )
                t += period
        plan = cls.build(events)
        return cls(events=plan.events, duration=end)


class ChaosController:
    """Executes a :class:`FaultPlan` against one :class:`InsDomain`."""

    def __init__(
        self,
        domain: InsDomain,
        tracker: Optional[RecoveryTracker] = None,
    ) -> None:
        self.domain = domain
        self.tracker = tracker
        #: every fault applied so far, in application order
        self.applied: List[FaultEvent] = []
        self._pristine_cpu_speed: Dict[str, float] = {}
        #: crash targets with a restart later in the plan, so the crash
        #: watch can demand full resurrection rather than clean removal
        self._will_restart: set = set()

    def execute(self, plan: FaultPlan) -> None:
        """Schedule every event of ``plan`` into the simulator.

        Plan times are relative: an event with ``at=5`` fires five
        virtual seconds after ``execute`` is called, so the same plan
        replays identically no matter how long setup took."""
        self._will_restart |= {
            event.target for event in plan if event.kind == "restart-inr"
        }
        start = self.domain.sim.now
        for event in plan:
            self.domain.sim.at(start + event.at, self._apply, event)

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, "_apply_" + event.kind.replace("-", "_"))
        handler(event)
        self.applied.append(event)

    def _apply_crash_inr(self, event: FaultEvent) -> None:
        inr = self.domain.crash_inr(event.target)
        if self.tracker is not None:
            if event.target in self._will_restart:
                self.tracker.watch_inr_crash_with_restart(inr)
            else:
                self.tracker.watch_inr_crash(inr)

    def _apply_restart_inr(self, event: FaultEvent) -> None:
        self.domain.restart_inr(event.target)

    def _apply_link_down(self, event: FaultEvent) -> None:
        a, b = event.target
        self.domain.network.link(a, b).up = False
        if self.tracker is not None:
            self.tracker.watch_link_flap((a, b))

    def _apply_link_up(self, event: FaultEvent) -> None:
        a, b = event.target
        self.domain.network.link(a, b).up = True

    def _apply_partition(self, event: FaultEvent) -> None:
        side_a, side_b = event.target
        self.domain.network.partition(side_a, side_b)

    def _apply_heal(self, event: FaultEvent) -> None:
        side_a, side_b = event.target
        self.domain.network.heal(side_a, side_b)

    def _apply_dsr_failover(self, event: FaultEvent) -> None:
        self.domain.fail_over_dsr()
        if self.tracker is not None:
            self.tracker.watch_dsr_failover()

    def _apply_cpu_degrade(self, event: FaultEvent) -> None:
        cpu = self.domain.network.node(event.target).cpu
        self._pristine_cpu_speed.setdefault(event.target, cpu.speed)
        cpu.speed = self._pristine_cpu_speed[event.target] * event.param(
            "factor", 0.5
        )

    def _apply_cpu_restore(self, event: FaultEvent) -> None:
        pristine = self._pristine_cpu_speed.pop(event.target, None)
        if pristine is not None:
            self.domain.network.node(event.target).cpu.speed = pristine

    def _apply_link_faults(self, event: FaultEvent) -> None:
        a, b = event.target
        params = dict(event.params)
        self.domain.network.configure_link(
            a,
            b,
            loss_rate=params.get("loss_rate"),
            duplicate_rate=params.get("duplicate_rate"),
            reorder_rate=params.get("reorder_rate"),
        )
