"""The closed-loop load generator and its statistics.

One driver thread issues one op at a time: draw it from the seeded
stream, execute it (issue, then step the simulator until it settles),
check it against the oracle, advance virtual time by the workload's
think gap, repeat. Host time is ``perf_counter`` from issue to settle;
virtual time is ``sim.now`` over the same interval. Think gaps count
toward throughput but not toward op latency.

The measured phase is cut into batches and every timing metric is the
*median over batches* of the per-batch statistic, so that a scheduler
hiccup moves one batch, not the metric. On a quiet domain the batches
are ten equal slices of the phase. With periodic updates running a
batch is one refresh round, from one periodic send of the first INR to
its next: whole-table updates arrive as a handful of ~100 ms events per
round, and only a window that holds each of them once costs the same
from one batch (and one seed) to the next.

Each per-batch statistic is expressed in *reference seconds* before the
median is taken. The shared box this runs on slows down by up to half
for seconds at a time, for every process alike, and two sets of runs of
the same code read 20-35 % apart on the raw clock. So the driver times
a fixed pure-Python loop (a *speed probe*, ~5 ms) every quarter second,
off the phase's clock, and divides each batch's times by the mean of
the probes that ran inside it, relative to ``REFERENCE_PROBE_SECONDS``.
The constant only fixes the unit; the raw readings and the host's
slowness are kept in the result file.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from e2e_scenario import OpStream, World

#: Host seconds between speed probes in a measured phase.
PROBE_EVERY = 0.25

#: What one probe takes on the reference host (this box, unloaded).
REFERENCE_PROBE_SECONDS = 4.5e-3

#: Equal slices a quiet domain's measured phase is cut into.
QUIET_BATCHES = 10

#: The op latency percentiles reported end to end. Each wants ten
#: samples beyond it in every batch; batches are merged until they have
#: that many.
PERCENTILES = (("op_p50_us", 0.50), ("op_p90_us", 0.90), ("op_p99_us", 0.99))

Batch = Tuple[int, int, float, float]   # first op, one past last op, host begin, host end


def speed_probe() -> float:
    """Host seconds a fixed interpreter-bound loop takes right now."""
    begin = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(40000):
        table[index & 1023] = table.get(index & 1023, 0) + index
    return time.perf_counter() - begin


def slowness(probe_seconds: Sequence[float]) -> float:
    """How slow the host was while these probes ran, relative to the
    reference host (1.0 when nothing was probed)."""
    if not probe_seconds:
        return 1.0
    return statistics.fmean(probe_seconds) / REFERENCE_PROBE_SECONDS


class Phase:
    """What one run of the loop recorded. Times are on the phase's own
    clock, which stands still while a probe runs."""

    def __init__(self) -> None:
        self.host = array("d")      # issue -> settle, host seconds, per op
        self.virtual = array("d")   # issue -> settle, virtual seconds, per op
        self.ends = array("d")      # phase clock when the op's turn ended
        self.failed = 0
        self.gap_seconds = 0.0      # host time spent in think gaps
        self.peak_pending = 0
        #: batch edges of a measured phase: (ops done, phase clock)
        self.edges: List[Tuple[int, float]] = []
        #: (phase clock, probe seconds), first one at the start
        self.probes: List[Tuple[float, float]] = []
        self.before: Dict[str, float] = {}
        self.at_mark: Optional[Dict[str, float]] = None
        self.after: Dict[str, float] = {}

    @property
    def ops(self) -> int:
        return len(self.host)

    @property
    def wall(self) -> float:
        """Host seconds from the phase's start to its last op's end."""
        return self.ends[-1]

    def delta(self, counter: str, upto_mark: bool = False) -> float:
        end = self.at_mark if upto_mark else self.after
        return end[counter] - self.before[counter]

    def batches(self, min_samples: int = 1) -> List[Batch]:
        """The stretches between batch edges, neighbours merged until
        each holds ``min_samples`` ops; the whole phase when it has
        fewer than two edges (smoke runs shorter than a refresh round)."""
        edges = self.edges[:1]
        for edge in self.edges[1:]:
            if edge[0] - edges[-1][0] >= min_samples:
                edges.append(edge)
        if len(edges) < 2:
            edges = [(0, 0.0), (self.ops, self.wall)]
        return [
            (before[0], after[0], before[1], after[1])
            for before, after in zip(edges, edges[1:])
        ]

    def slowness(self, begin: float = -math.inf, end: float = math.inf) -> float:
        """Host slowness over the probes taken in a stretch of the
        phase; over the whole phase when the stretch holds none."""
        inside = [seconds for at, seconds in self.probes if begin <= at <= end]
        return slowness(inside or [seconds for _, seconds in self.probes])


def run_phase(
    world: World,
    stream: OpStream,
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
    virtual_seconds: Optional[float] = None,
    mark: Optional[int] = None,
    wrap_op: Optional[Callable] = None,
    wrap_gap: Optional[Callable] = None,
) -> Phase:
    """Drive ops until ``seconds`` of host time, ``max_ops`` ops or
    ``virtual_seconds`` of simulated time have passed.

    A phase bounded by host time is a measured phase: it is probed for
    host speed and cut into batches. The other two bounds give passes
    that repeat exactly for a seed. ``mark`` snapshots the program's
    counters after that many ops (the prefix a determinism twin
    re-runs). ``wrap_op``/``wrap_gap`` let the ledger put a root span
    around each op and each think gap.
    """
    phase = Phase()
    sim = world.sim
    gap = world.spec.think_gap
    execute = world.execute if wrap_op is None else wrap_op(world.execute)
    think = sim.run_for if wrap_gap is None else wrap_gap(sim.run_for)
    verify = world.verify
    clock = time.perf_counter
    host, virtual, ends = phase.host, phase.virtual, phase.ends
    limit = max_ops if max_ops is not None else math.inf
    virtual_deadline = (
        sim.now + virtual_seconds if virtual_seconds is not None else math.inf
    )
    phase.before = world.counters()
    next_probe = next_edge = deadline = math.inf
    by_round = False
    if seconds is not None:
        phase.probes.append((0.0, speed_probe()))
        next_probe, deadline = PROBE_EVERY, seconds
        if world.spec.quiet:
            phase.edges.append((0, 0.0))
            next_edge = slice_seconds = seconds / QUIET_BATCHES
        else:
            by_round = True
            rounds = world.inrs[0].stats
            rounds_sent = rounds.periodic_updates_sent
    #: the phase clock reads clock() - origin; probes push origin forward
    origin = clock()
    done = 0
    while done < limit:
        op = stream.next()
        virtual_start = sim.now
        start = clock()
        execute(op)
        settled = clock()
        virtual.append(sim.now - virtual_start)
        host.append(settled - start)
        phase.failed += verify(op)
        pending = sim.pending_events
        if pending > phase.peak_pending:
            phase.peak_pending = pending
        done += 1
        if gap:
            before_gap = clock()
            think(gap)
            end = clock()
            phase.gap_seconds += end - before_gap
        else:
            end = clock()
        end -= origin
        ends.append(end)
        if end >= next_edge:
            phase.edges.append((done, end))
            while next_edge <= end:
                next_edge += slice_seconds
        elif by_round and rounds.periodic_updates_sent != rounds_sent:
            rounds_sent = rounds.periodic_updates_sent
            phase.edges.append((done, end))
        if done == mark:
            phase.at_mark = world.counters()
        if end >= next_probe:
            took = speed_probe()
            origin += took
            phase.probes.append((end, took))
            next_probe = end + PROBE_EVERY
        if end >= deadline or sim.now >= virtual_deadline:
            break
    phase.after = world.counters()
    phase.failed += world.drain()
    return phase


def warm_up(world: World, stream: OpStream) -> int:
    """Run the workload's first ops unmeasured (part of set-up): fills
    the lookup memos and packet caches, creates the lazy links. With
    periodic updates running it lasts one whole refresh interval, so
    every build pays for the same maintenance. Returns how many of the
    ops failed the oracle."""
    cycle = world.spec.cycle_seconds
    if not cycle:
        return run_phase(world, stream, max_ops=world.scale.warmup_ops).failed
    failed = 0
    until = world.sim.now + cycle
    while world.sim.now < until:
        failed += run_phase(world, stream, max_ops=10).failed
    return failed


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def over_batches(phase: Phase, min_samples: int,
                 statistic: Callable[[Batch], float]) -> Dict[str, float]:
    """Median over batches of a per-batch time, each divided by the
    host's slowness while its batch ran; the raw median alongside."""
    batches = phase.batches(min_samples)
    raw = [statistic(batch) for batch in batches]
    return {
        "value": statistics.median(
            seconds / phase.slowness(batch[2], batch[3])
            for seconds, batch in zip(raw, batches)
        ),
        "raw": statistics.median(raw),
        "batches": len(batches),
        "samples_per_batch": statistics.median(hi - lo for lo, hi, _, _ in batches),
    }


def end_to_end(phase: Phase) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """The timing metrics of one measured phase, and how each was
    taken (raw reading, batch count, samples per batch)."""
    taken = {
        # seconds per op, think gaps and driver time included
        "ops_per_s": over_batches(
            phase, 1, lambda batch: (batch[3] - batch[2]) / (batch[1] - batch[0])
        ),
    }
    for name, q in PERCENTILES:
        taken[name] = over_batches(
            phase, math.ceil(10 / (1 - q)),
            lambda batch: percentile(sorted(phase.host[batch[0]:batch[1]]), q),
        )
    values = {name: taken[name]["value"] * 1e6 for name, _ in PERCENTILES}
    # failed ops complete nothing
    values["ops_per_s"] = (
        (phase.ops - phase.failed) / phase.ops / taken["ops_per_s"]["value"]
    )
    return values, taken


def virtual_latency(phase: Phase) -> Dict[str, float]:
    """Simulated latency the INS user sees, over a pass that repeats
    exactly for a seed."""
    ordered = sorted(phase.virtual)
    return {
        "virtual_op_p50_ms": percentile(ordered, 0.50) * 1e3,
        "virtual_op_p99_ms": percentile(ordered, 0.99) * 1e3,
    }
