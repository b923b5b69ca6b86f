"""A serial CPU model for simulated nodes.

The paper finds INS is CPU-bound: the Pentium II saturates before a
1 Mbit/s link does (Figure 8). To reproduce that, every node owns one
CPU that processes work strictly serially; message handlers declare a
processing cost and the CPU queues them, tracking cumulative busy time
so experiments can report utilization over a window.
"""

from __future__ import annotations

from typing import Any, Callable

from .simulator import Simulator


class Cpu:
    """One serial processor attached to a node.

    ``speed`` scales costs: a cost of ``c`` seconds occupies the CPU for
    ``c / speed`` seconds, so a two-machine experiment can model faster
    or slower hardware without touching the cost model.
    """

    __slots__ = ("_sim", "speed", "free_at", "busy_seconds", "jobs_executed")

    def __init__(self, sim: Simulator, speed: float = 1.0) -> None:
        if not speed > 0:
            raise ValueError(f"cpu speed must be positive, got {speed}")
        self._sim = sim
        self.speed = speed
        #: the virtual time at which the CPU finishes already-queued work
        self.free_at = 0.0
        #: cumulative seconds spent processing since construction
        self.busy_seconds = 0.0
        #: number of work items executed
        self.jobs_executed = 0

    def execute(self, cost: float, callback: Callable[..., None], *args: Any) -> float:
        """Queue ``cost`` seconds of work; run ``callback(*args)`` on
        completion.

        Returns the virtual time at which the work completes. Work is
        serialized: it starts when the CPU is next free, never earlier
        than now.
        """
        if not cost >= 0:
            raise ValueError(f"cpu cost must be non-negative, got {cost}")
        scaled = cost / self.speed
        start = max(self._sim.now, self.free_at)
        finish = start + scaled
        self.free_at = finish
        self.busy_seconds += scaled
        self.jobs_executed += 1
        self._sim.at(finish, callback, *args)
        return finish

    def execute_last(self, cost: float, callback: Callable[..., None], *args: Any) -> float:
        """:meth:`execute` for a caller in tail position — the last act
        of the event it runs in.

        The accounting is :meth:`execute`'s. When nothing is due by the
        work's completion, the heap would pop the callback straight
        back, so the clock moves there and it is fired in place — still
        one event. Otherwise it is scheduled, as :meth:`execute` does.
        """
        if not cost >= 0:
            raise ValueError(f"cpu cost must be non-negative, got {cost}")
        sim = self._sim
        scaled = cost / self.speed
        finish = max(sim.now, self.free_at) + scaled
        self.free_at = finish
        self.busy_seconds += scaled
        self.jobs_executed += 1
        if sim.nothing_due_by(finish):
            sim.fire(finish, callback, *args)
        else:
            sim.at(finish, callback, *args)
        return finish

    def utilization(self, window_start: float, busy_at_start: float) -> float:
        """Fraction of the window since ``window_start`` spent busy.

        Callers snapshot ``busy_seconds`` at the window start and pass
        it back; this keeps the CPU stateless about measurement windows.
        The result may exceed 1.0 when queued work overflows the window,
        which is exactly the saturation signal Figure 8 looks for.
        """
        elapsed = self._sim.now - window_start
        if elapsed <= 0:
            return 0.0
        return (self.busy_seconds - busy_at_start) / elapsed

    @property
    def backlog(self) -> float:
        """Seconds of queued work not yet completed."""
        return max(0.0, self.free_at - self._sim.now)

    def __repr__(self) -> str:
        return (
            f"Cpu(speed={self.speed}, busy={self.busy_seconds:.3f}s, "
            f"backlog={self.backlog:.3f}s)"
        )
