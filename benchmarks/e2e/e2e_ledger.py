"""The per-layer ledger: timing wrappers, spans and self time.

The traced run installs wrappers — from here, never from ``src/`` —
around the public entry points of each layer and around every callback
handed to the simulator, records one ``(name, layer, start, end,
parent, op)`` span per call in memory, and derives each layer's self
time: a span's duration minus the part its child spans cover, minus the
wrapper's own calibrated cost. Everything is restored by
:meth:`Ledger.uninstall`.

A layer is one of this repo's packages. A simulator callback belongs to
the layer whose module defined it (``lambda: self._route(...)`` in
``repro.resolver.inr`` is resolver work even though ``Simulator.step``
runs it), so netsim's self time is what is left under ``step``/``run``
once every other layer's spans are taken out.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.client import InsClient, Service
from repro.message import Header, InsMessage
from repro.nametree import NameTree
from repro.naming import NameSpecifier
from repro.naming import binary as naming_binary
from repro.netsim import Cpu, Network, Process, Simulator
from repro.obs import Tracer
from repro.overlay import DomainSpaceResolver
from repro.resolver import INR
from repro.resolver.cache import PacketCache

LAYERS = (
    "naming", "message", "nametree", "netsim", "resolver", "client",
    "overlay", "obs",
)

#: layer, class, public entry points wrapped on it
BOUNDARIES: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("naming", NameSpecifier, ("parse", "to_wire", "canonical_key")),
    ("message", InsMessage, ("encode", "decode")),
    ("message", Header, ("pack_into", "unpack")),
    ("nametree", NameTree, ("lookup", "insert", "remove", "expire", "get_name")),
    ("netsim", Simulator, ("step", "run")),
    ("netsim", Network, ("send",)),
    ("netsim", Cpu, ("execute",)),
    ("resolver", INR, ("admit", "processing_cost", "handle_message")),
    ("resolver", PacketCache, ("lookup", "store")),
    ("client", InsClient, (
        "resolve_early", "discover", "send_anycast", "send_multicast",
        "handle_message",
    )),
    ("client", Service, ("advertise", "rename")),
    ("overlay", DomainSpaceResolver, ("handle_message",)),
    ("obs", Tracer, ("start_span", "end_span")),
)

#: module-level entry points (rebound in every repro module importing them)
FUNCTIONS = (("naming", naming_binary, ("encode_name", "decode_name")),)

#: span kinds, for the overhead calibration
WRAPPED, EVENT = 0, 1

#: The "which op is running" cell: op ``k`` while it executes,
#: ``GAP_BASE - k`` during the think gap after it, OUTSIDE otherwise
#: (the driver drawing and checking ops).
OUTSIDE, GAP_BASE = -1, -2

#: at most this many argument tuples are kept per boundary in capture mode
CORPUS_CAP = 4000

_RECORDING, _CURRENT, _OP = 0, 1, 2


def layer_of_module(module: Optional[str]) -> str:
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Ledger:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: recording flag, index of the open span, current op
        self.state = [False, -1, OUTSIDE]
        self._ops_begun = 0
        self.names: List[str] = []
        self.layers: List[str] = []
        self.kinds: List[int] = []
        self._event_ids: Dict[object, int] = {}
        self._restore: List[Tuple[object, str, object]] = []
        #: boundary name -> captured (args, kwargs) of calls made for ops
        self.corpus: Optional[Dict[str, list]] = None
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._record = self._make_recorder()
        self.op_id = self._register("op", "harness", WRAPPED)
        self.gap_id = self._register("gap", "harness", WRAPPED)

    def _register(self, name: str, layer: str, kind: int) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.kinds.append(kind)
        return len(self.names) - 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _make_recorder(self) -> Callable:
        """``record(name_id, fn, args, kwargs)``: call ``fn`` under a span."""
        state = self.state
        clock = self.clock
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op

        def record(name_id, fn, args, kwargs):
            index = len(span_start)
            parent = state[_CURRENT]
            span_name.append(name_id)
            span_parent.append(parent)
            span_op.append(state[_OP])
            span_end.append(0.0)
            state[_CURRENT] = index
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                state[_CURRENT] = parent

        return record

    def _wrap(self, fn: Callable, name_id: int) -> Callable:
        state = self.state
        record = self._record
        ledger = self
        label = self.names[name_id]

        def wrapper(*args, **kwargs):
            if not state[_RECORDING]:
                return fn(*args, **kwargs)
            corpus = ledger.corpus
            if corpus is not None and state[_OP] != OUTSIDE:
                seen = corpus.setdefault(label, [])
                if len(seen) < CORPUS_CAP:
                    seen.append((args, kwargs))
            return record(name_id, fn, args, kwargs)

        return wrapper

    def _event_name_id(self, callback) -> int:
        function = getattr(callback, "__func__", callback)
        key = getattr(function, "__code__", None) or type(callback)
        name_id = self._event_ids.get(key)
        if name_id is None:
            label = getattr(function, "__qualname__", type(callback).__name__)
            name_id = self._register(
                "event:" + label,
                layer_of_module(getattr(function, "__module__", None)),
                EVENT,
            )
            self._event_ids[key] = name_id
        return name_id

    def _run_event(self, callback, *args):
        """What the simulator is handed in place of ``callback``: runs
        it under a span named and layered after the callback."""
        if not self.state[_RECORDING]:
            return callback(*args)
        return self._record(self._event_name_id(callback), callback, args, {})

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("ledger already installed")
        run_event = self._run_event
        for layer, cls, methods in BOUNDARIES:
            for method in methods:
                original = vars(cls)[method]
                name_id = self._register(f"{cls.__name__}.{method}", layer, WRAPPED)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name_id))
                else:
                    wrapped = self._wrap(original, name_id)
                self._patch(cls, method, wrapped)
        for layer, module, functions in FUNCTIONS:
            for function in functions:
                original = getattr(module, function)
                name_id = self._register(function, layer, WRAPPED)
                wrapped = self._wrap(original, name_id)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and \
                            vars(loaded).get(function) is original:
                        self._patch(loaded, function, wrapped)
        # Every callback handed to the simulator runs under a span of
        # the layer that defined it.
        original_at = vars(Simulator)["at"]

        def at(sim, when, callback, *args):
            return original_at(sim, when, run_event, callback, *args)

        at_id = self._register("Simulator.at", "netsim", WRAPPED)
        self._patch(Simulator, "at", self._wrap(at, at_id))
        # A periodic timer fires its own (netsim) method, which then
        # calls the owner's callback: give that callback its own span.
        original_every = vars(Process)["every"]

        def every(process, interval, callback, *args, **kwargs):
            def traced_callback():
                return run_event(callback)

            return original_every(process, interval, traced_callback, *args, **kwargs)

        self._patch(Process, "every", every)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Root spans the driver opens
    # ------------------------------------------------------------------
    def op_span(self, execute: Callable) -> Callable:
        state = self.state
        traced = self._wrap(execute, self.op_id)

        def run_op(op):
            state[_OP] = self._ops_begun
            self._ops_begun += 1
            try:
                traced(op)
            finally:
                state[_OP] = OUTSIDE

        return run_op

    def gap_span(self, run_for: Callable) -> Callable:
        state = self.state
        traced = self._wrap(run_for, self.gap_id)

        def run_gap(duration):
            state[_OP] = GAP_BASE - (self._ops_begun - 1)
            try:
                traced(duration)
            finally:
                state[_OP] = OUTSIDE

        return run_gap

    def start_recording(self, capture: bool = False) -> None:
        self._truncate(0)
        self._ops_begun = 0
        self.corpus = {} if capture else None
        self.state[_CURRENT] = -1
        self.state[_RECORDING] = True

    def stop_recording(self) -> None:
        self.state[_RECORDING] = False

    def _truncate(self, length: int) -> None:
        for spans in (self.span_name, self.span_start, self.span_end,
                      self.span_parent, self.span_op):
            del spans[length:]

    # ------------------------------------------------------------------
    # The wrapper's own cost
    # ------------------------------------------------------------------
    def calibrate(self, calls: int = 20000, rounds: int = 5) -> Dict[str, float]:
        """Cost of one wrapper on a no-op of the same arity: ``inner``
        seconds land inside the recorded span (between its two clock
        reads), ``outer`` seconds land in the parent's self time."""

        def noop(target, first, second):
            return None

        out: Dict[str, float] = {}
        run_event = self._run_event
        wrapped = self._wrap(noop, self._register("calibrate", "harness", WRAPPED))
        variants = {
            WRAPPED: lambda: wrapped(self, 1, 2),
            EVENT: lambda: run_event(noop, self, 1, 2),
        }
        clock = self.clock
        for kind, call in sorted(variants.items()):
            inner, total = [], []
            for _ in range(rounds):
                begin = clock()
                for _ in range(calls):
                    noop(self, 1, 2)
                bare = (clock() - begin) / calls
                self.start_recording()
                begin = clock()
                for _ in range(calls):
                    call()
                traced = (clock() - begin) / calls
                self.stop_recording()
                recorded = sum(
                    self.span_end[i] - self.span_start[i] for i in range(calls)
                ) / calls
                inner.append(recorded)
                total.append(max(traced - bare, recorded))
            self._truncate(0)
            inner_cost = statistics.median(inner)
            label = "wrapper" if kind == WRAPPED else "event"
            out[f"{label}_inner_us"] = inner_cost * 1e6
            out[f"{label}_outer_us"] = (statistics.median(total) - inner_cost) * 1e6
        return out


# ----------------------------------------------------------------------
# From spans to the ledger
# ----------------------------------------------------------------------
class Attribution:
    """Per-boundary and per-layer totals derived from one traced pass."""

    def __init__(self) -> None:
        #: span name -> calls / self seconds / inclusive seconds, inside
        #: ops and think gaps (what the program did for the workload)
        self.calls: Dict[str, int] = {}
        self.self_seconds: Dict[str, float] = {}
        self.inclusive_seconds: Dict[str, float] = {}
        self.layer_of: Dict[str, str] = {}
        #: self seconds per layer, split into the two places it was spent
        self.layer_in_ops: Dict[str, float] = {}
        self.layer_in_gaps: Dict[str, float] = {}
        self.layer_calls: Dict[str, int] = {}
        self.spans = 0
        self.spans_outside = 0

    def layer_seconds(self, layer: str) -> float:
        return self.layer_in_ops.get(layer, 0.0) + self.layer_in_gaps.get(layer, 0.0)

    @property
    def traced_seconds(self) -> float:
        """Overhead-corrected time under the op and gap root spans."""
        return sum(self.layer_in_ops.values()) + sum(self.layer_in_gaps.values())


def attribute(ledger: Ledger, costs: Dict[str, float]) -> Attribution:
    """Self time per span = duration - covered children - wrapper cost."""
    names, layers, kinds = ledger.names, ledger.layers, ledger.kinds
    span_name, span_parent, span_op = ledger.span_name, ledger.span_parent, ledger.span_op
    starts, ends = ledger.span_start, ledger.span_end
    count = len(starts)
    inner = {
        WRAPPED: costs["wrapper_inner_us"] * 1e-6, EVENT: costs["event_inner_us"] * 1e-6,
    }
    outer = {
        WRAPPED: costs["wrapper_outer_us"] * 1e-6, EVENT: costs["event_outer_us"] * 1e-6,
    }
    inner_of = [inner[kind] for kind in kinds]
    outer_of = [outer[kind] for kind in kinds]
    covered = [0.0] * count      # children's durations plus their outer cost
    below = [0.0] * count        # all wrapper cost strictly inside the span
    for index in range(count - 1, -1, -1):
        parent = span_parent[index]
        if parent >= 0:
            name_id = span_name[index]
            duration = ends[index] - starts[index]
            covered[parent] += duration + outer_of[name_id]
            below[parent] += below[index] + inner_of[name_id] + outer_of[name_id]
    result = Attribution()
    result.spans = count
    calls = [0] * len(names)
    self_seconds = [0.0] * len(names)
    inclusive = [0.0] * len(names)
    gaps = [0.0] * len(names)
    for index in range(count):
        if span_op[index] == OUTSIDE:
            result.spans_outside += 1
            continue
        name_id = span_name[index]
        duration = ends[index] - starts[index]
        own = duration - covered[index] - inner_of[name_id]
        calls[name_id] += 1
        self_seconds[name_id] += own
        inclusive[name_id] += duration - inner_of[name_id] - below[index]
        if span_op[index] <= GAP_BASE:
            gaps[name_id] += own
    for name_id, name in enumerate(names):
        if not calls[name_id]:
            continue
        layer = layers[name_id]
        result.calls[name] = calls[name_id]
        result.self_seconds[name] = self_seconds[name_id]
        result.inclusive_seconds[name] = inclusive[name_id]
        result.layer_of[name] = layer
        result.layer_calls[layer] = result.layer_calls.get(layer, 0) + calls[name_id]
        result.layer_in_gaps[layer] = result.layer_in_gaps.get(layer, 0.0) + gaps[name_id]
        result.layer_in_ops[layer] = (
            result.layer_in_ops.get(layer, 0.0) + self_seconds[name_id] - gaps[name_id]
        )
    return result


def call_counts(ledger: Ledger, ops: int) -> Dict[str, int]:
    """Calls per boundary during the first ``ops`` ops and their think
    gaps — the exact counters a determinism twin must reproduce."""
    counts = [0] * len(ledger.names)
    last_gap = GAP_BASE - (ops - 1)
    for name_id, op in zip(ledger.span_name, ledger.span_op):
        if 0 <= op < ops or last_gap <= op <= GAP_BASE:
            counts[name_id] += 1
    return {
        ledger.names[name_id]: count
        for name_id, count in enumerate(counts) if count
    }


def span_excerpt(ledger: Ledger, limit: int = 400) -> List[dict]:
    """The first spans of the pass, as written to the results file."""
    origin = ledger.span_start[0] if len(ledger.span_start) else 0.0
    return [
        {
            "name": ledger.names[ledger.span_name[i]],
            "layer": ledger.layers[ledger.span_name[i]],
            "start_us": round((ledger.span_start[i] - origin) * 1e6, 3),
            "end_us": round((ledger.span_end[i] - origin) * 1e6, 3),
            "parent": ledger.span_parent[i],
            "op": ledger.span_op[i],
        }
        for i in range(min(limit, len(ledger.span_start)))
    ]
