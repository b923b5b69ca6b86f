"""Isolated replay micro-benchmarks: each public function alone.

During the capture pass the ledger keeps the actual arguments seen at
each boundary (names, raw packets, records, trees). Here every function
is timed by itself over that corpus, with the wrappers removed, giving
the ``*_us`` unit costs. ``count x unit`` printed beside the traced
time is the second, independent attribution of the same work.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.message import InsMessage
from repro.nametree import AnnouncerID, NameRecord, NameTree
from repro.naming import NameSpecifier, decode_name, encode_name
from repro.obs import Tracer

#: each corpus is swept this many times; the median sweep is reported
SWEEPS = 5

#: metric, class, method — replayed over the arguments captured there
REPLAYED = (
    ("naming.parse_us", NameSpecifier, "parse"),
    ("naming.to_wire_us", NameSpecifier, "to_wire"),
    ("naming.canonical_key_us", NameSpecifier, "canonical_key"),
    ("message.encode_us", InsMessage, "encode"),
    ("message.decode_us", InsMessage, "decode"),
    ("nametree.lookup_us", NameTree, "lookup"),
    ("nametree.insert_us", NameTree, "insert"),
    ("nametree.expire_us", NameTree, "expire"),
)


def unit_cost_us(
    function: Callable, calls: Sequence[tuple],
    before_sweep: Optional[Callable[[], object]] = None,
) -> float:
    """Median over sweeps of the mean host time of one call; ``calls``
    holds the captured ``(args, kwargs)`` pairs."""
    if not calls:
        return 0.0
    clock = time.perf_counter
    per_call: List[float] = []
    for _ in range(SWEEPS):
        if before_sweep is not None:
            before_sweep()
        begin = clock()
        for args, kwargs in calls:
            function(*args, **kwargs)
        per_call.append((clock() - begin) / len(calls))
    return statistics.median(per_call) * 1e6


def replay_all(corpus: Dict[str, list]) -> Dict[str, float]:
    """Unit cost of every replayed boundary, plus the binary name codec
    (off the request path, so it borrows the names seen at ``to_wire``)."""
    out: Dict[str, float] = {}
    for metric, cls, method in REPLAYED:
        calls = corpus.get(f"{cls.__name__}.{method}", [])
        if isinstance(vars(cls)[method], classmethod):
            calls = [(args[1:], kwargs) for args, kwargs in calls]   # drop cls
        before_sweep = None
        if method == "canonical_key":
            # The key is memoised on the object and every captured name
            # has been asked by now: this is the cold cost, on copies
            # (an upper bound where the run's names were already keyed).
            names = [args[0] for args, _ in calls]

            def before_sweep():
                calls[:] = [((name.copy(),), {}) for name in names]
        elif method == "lookup":
            # By now the memo holds every captured query. Start each
            # sweep from an empty memo, so that repeats within the
            # corpus hit and first sights miss, as they did in the run.
            trees = list({id(args[0]): args[0] for args, _ in calls}.values())

            def before_sweep():
                for tree in trees:
                    _flush_memo(tree)
        out[metric] = unit_cost_us(getattr(cls, method), calls, before_sweep)
    names = [(args[:1], {}) for args, _ in corpus.get("NameSpecifier.to_wire", [])]
    out["naming.encode_us"] = unit_cost_us(encode_name, names)
    blobs = [((encode_name(*args),), {}) for args, _ in names]
    out["naming.decode_us"] = unit_cost_us(decode_name, blobs)
    packets = [
        len(InsMessage.encode(*args))
        for args, _ in corpus.get("InsMessage.encode", [])
    ]
    out["message.bytes_per_packet"] = statistics.fmean(packets) if packets else 0.0
    return out


def _flush_memo(tree: NameTree) -> None:
    """Change the record set and change it back: the public way to make
    the tree drop its LOOKUP-NAME memo."""
    record = NameRecord(announcer=AnnouncerID.generate("e2e-replay"))
    tree.insert(_FLUSH_NAME, record)
    tree.remove(record)


_FLUSH_NAME = NameSpecifier.from_dict({"service": "e2e-replay-flush"})


def span_cost_us(recorded_spans: Sequence) -> float:
    """Host cost of one obs span (start + end), replaying the names,
    nodes and tags the domain's own tracer recorded."""
    calls = [
        (span.name, span.node, span.tags) for span in recorded_spans[:2000]
    ]
    if not calls:
        return 0.0
    clock = time.perf_counter
    sweeps: List[float] = []
    for _ in range(SWEEPS):
        tracer = Tracer(clock=lambda: 0.0)
        root = tracer.start_span("replay-root")
        begin = clock()
        for name, node, tags in calls:
            tracer.end_span(tracer.start_span(name, node, root, tags))
        sweeps.append((clock() - begin) / len(calls))
    return statistics.median(sweeps) * 1e6
