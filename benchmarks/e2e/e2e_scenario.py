"""Workloads of the whole-domain benchmark: domain, op stream, oracle.

Every workload runs on the same kind of domain — INRs joined through
the DSR, ``UniformWorkload`` names advertised by real ``Service``
processes spread over the INRs, one addressable client per INR — and
differs in the resolver configuration, the op mix and the think gap.

An *op* is one client-visible action. :meth:`World.execute` issues it
through the public client API and steps the simulator until it settles;
:meth:`World.verify` then checks what came back against an oracle built
from the generated inputs alone (a brute-force matcher over the
advertised names, never the system's own name-tree).
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments import InsDomain, UniformWorkload
from repro.nametree import Endpoint
from repro.naming import NameSpecifier
from repro.resolver import InrConfig

#: Application payload that makes a late-binding packet ~586 bytes, the
#: paper's Camera message (same constant as the Figure 15 experiment).
PAYLOAD_BYTES = 450

#: Packet-cache lifetime requested by cache-fill sends, virtual seconds
#: (the header field is 16 bits); far longer than any run.
CACHE_LIFETIME = 60000

#: A late-binding op that has not delivered after this many simulator
#: events is counted as unsettled (it would otherwise spin on timers).
MAX_STEPS_PER_OP = 20000

#: Virtual time a rename op advances before the next op is issued.
RENAME_WINDOW = 0.1

#: Virtual window after a rename in which the update must have reached
#: every INR; the check is made when it closes, many ops later. Most
#: triggered updates land within 50 ms, but one queued behind a
#: 2000-name periodic batch waits for its link transmission (~1.6 s at
#: 1 Mbit/s) and its CPU time (~1.7 s) on each of up to two overlay
#: hops, ~7.6 s worst case; 12 s leaves margin and is still under the
#: 15 s refresh that would repair a lost update anyway.
RENAME_CHECK_AFTER = 12.0

RESOLVE, DISCOVER, ANYCAST, FILL, ASK, MULTICAST, RENAME = range(7)


@dataclass(frozen=True)
class Scale:
    """How big the domain is; ``--quick`` shrinks it, nothing else does."""

    inrs: int = 4
    names: int = 2000
    hot_names: int = 256
    filters: int = 256
    publishers_per_client: int = 8
    groups_per_client: int = 8
    group_size: int = 4
    warmup_ops: int = 200
    #: refresh cycles in a determinism pass when periodic updates run:
    #: how many ops fit in one cycle varies by an eighth from cycle to
    #: cycle (ops queue behind whole-table updates), and with it bytes
    #: per op
    fixed_pass_cycles: int = 3


FULL = Scale()
QUICK = Scale(names=200, hot_names=32, filters=16, warmup_ops=20, fixed_pass_cycles=1)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: push every periodic timer out of the run (fig15's quiet config)
    quiet: bool
    #: virtual seconds the driver advances between ops
    think_gap: float
    #: (kind, weight) pairs; weights sum to 1
    mix: Tuple[Tuple[int, float], ...]
    #: ops per ``--seconds`` second in the fixed-count passes (traced
    #: ledger pass and its untraced twin), sized so the traced pass
    #: takes about half of ``--seconds`` on the reference box
    ledger_ops_per_second: float
    #: ops per ``--seconds`` second in each determinism pass on a quiet
    #: domain (with periodic updates on, that pass is one refresh cycle)
    check_ops_per_second: float = 0.0

    @property
    def cycle_seconds(self) -> float:
        """Virtual seconds after which the domain's periodic work
        repeats (the default refresh interval); 0 on a quiet domain."""
        return 0.0 if self.quiet else InrConfig().refresh_interval


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="resolve-quiet",
        why=(
            "early binding on a quiet domain: client, netsim, dispatch and "
            "nametree.lookup do the work, soft-state maintenance none"
        ),
        quiet=True,
        think_gap=0.0,
        mix=((RESOLVE, 0.85), (DISCOVER, 0.15)),
        ledger_ops_per_second=2500.0,
        check_ops_per_second=500.0,
    ),
    WorkloadSpec(
        name="deliver-late",
        why=(
            "late binding across >=2 INRs: per-hop message and naming "
            "codecs and forwarding dominate, nametree is minor"
        ),
        quiet=True,
        think_gap=0.0,
        mix=(
            (ANYCAST, 0.56), (FILL, 0.07), (ASK, 0.07), (MULTICAST, 0.30),
        ),
        ledger_ops_per_second=600.0,
        check_ops_per_second=120.0,
    ),
    WorkloadSpec(
        name="churn-softstate",
        why=(
            "renames under default soft state: the write side of nametree "
            "and resolver (insert, refresh, expire, update batches), few lookups"
        ),
        quiet=False,
        think_gap=0.0,
        mix=((RENAME, 1.0),),
        ledger_ops_per_second=30.0,
    ),
    WorkloadSpec(
        name="steady-mix",
        why=(
            "the headline mix on a populated domain with periodic updates "
            "running: requests versus maintenance"
        ),
        quiet=False,
        think_gap=0.02,
        # 54 % resolves, not resolve-quiet's 85:15 split of the 60 % early
        # binding: at 51 % the median op sat on the edge between the
        # resolve and the discover cluster and jumped with the seed.
        mix=(
            (RESOLVE, 0.54), (DISCOVER, 0.06), (ANYCAST, 0.20), (FILL, 0.025),
            (ASK, 0.025), (MULTICAST, 0.10), (RENAME, 0.05),
        ),
        ledger_ops_per_second=75.0,
    ),
)

WORKLOADS_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


def quiet_config() -> InrConfig:
    """Everything periodic pushed out of the run (as in Figure 15), so
    requests are the only work the resolvers see."""
    return InrConfig(
        refresh_interval=1e6,
        record_lifetime=1e9,
        heartbeat_interval=1e6,
        expiry_sweep_interval=1e6,
        neighbor_timeout=1e9,
    )


# ----------------------------------------------------------------------
# The oracle: INS matching over canonical keys, by brute force
# ----------------------------------------------------------------------
def key_matches(query_pairs: Sequence[tuple], name_pairs: Sequence[tuple]) -> bool:
    """True when a name (canonical key pairs) satisfies a query.

    Section 2.3.2 on keys: every av-pair of the query must be present
    in the name with an equal value (or the query's value is ``*``),
    recursively for dependent pairs; the name may say more.
    """
    by_attribute = {pair[0]: pair for pair in name_pairs}
    for attribute, value, children in query_pairs:
        have = by_attribute.get(attribute)
        if have is None:
            return False
        if value != "*" and value != have[1]:
            return False
        if children and not key_matches(children, have[2]):
            return False
    return True


class Op:
    """One client-visible action and what the oracle expects of it."""

    __slots__ = (
        "kind", "client", "target", "name", "payload", "expect", "reply",
        "arrivals_from", "old_name", "due",
    )

    def __init__(self, kind: int, client: int) -> None:
        self.kind = kind
        self.client = client
        self.target = -1
        self.name: Optional[NameSpecifier] = None
        self.payload = b""
        self.expect: object = None
        self.reply = None
        self.arrivals_from = 0
        self.old_name: Optional[NameSpecifier] = None
        self.due = 0.0


class World:
    """One built domain plus the state its oracle tracks."""

    def __init__(self, spec: WorkloadSpec, seed: int, scale: Scale,
                 observe: bool = False) -> None:
        self.spec = spec
        self.scale = scale
        begin = time.perf_counter()
        config = quiet_config() if spec.quiet else InrConfig()
        self.domain = InsDomain(seed=seed, config=config)
        if observe:
            self.domain.observe()
        self.sim = self.domain.sim
        self.inrs = [self.domain.add_inr() for _ in range(scale.inrs)]
        self._generator = UniformWorkload(rng=random.Random(seed))
        #: (receiver id, payload) in delivery order, appended by every
        #: receiver's message handler
        self.arrivals: List[Tuple[int, bytes]] = []
        self._advertise_everything()
        advertised = time.perf_counter()
        self._build_oracle(seed)
        oracle_built = time.perf_counter()
        self._settle()
        #: host seconds the program's set-up took (the oracle's not included)
        self.setup_seconds = (
            time.perf_counter() - oracle_built + advertised - begin
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _receiver(self, receiver_id: int):
        arrivals = self.arrivals

        def on_message(message, source) -> None:
            arrivals.append((receiver_id, message.data))

        return on_message

    def _add(self, name: NameSpecifier, host: str, inr_index: int, metric: float = 0.0):
        service = self.domain.add_service(
            name, address=host, resolver=self.inrs[inr_index], metric=metric
        )
        receiver_id = len(self.receivers)
        service.on_message(self._receiver(receiver_id))
        self.receivers.append(service)
        return receiver_id

    def _advertise_everything(self) -> None:
        scale = self.scale
        inrs = scale.inrs
        self.receivers: list = []
        # Uniform names: receiver id == service index. Joins are spread
        # over one default refresh interval of virtual time so soft-state
        # refreshes arrive as a steady stream, not one synchronized burst.
        self.names: List[NameSpecifier] = self._generator.distinct_names(scale.names)
        self.metrics = [float(index % 7) for index in range(scale.names)]
        stride = max(1, scale.names // 40)
        for index, name in enumerate(self.names):
            self._add(name, f"s{index:04d}", index % inrs, self.metrics[index])
            if index % stride == stride - 1:
                self.domain.run(15.0 / 40)
        # One addressable client per INR (a Service, so cached replies
        # can be late-bound back to its name).
        self.client_ids = [
            self._add(
                NameSpecifier.from_dict({"service": ("e2e-client", {"id": f"c{c}"})}),
                f"client-{c}", c,
            )
            for c in range(inrs)
        ]
        self.clients = [self.receivers[rid] for rid in self.client_ids]
        if self.domain.collector is not None:
            # observe() reaches INRs and plain clients; these clients are
            # Services (they need a name), so hand them the tracer here.
            for client in self.clients:
                client.tracer = self.domain.collector.tracer
        # Publishers: the names cache-fill sends are stored under and
        # cache-ask sends are addressed to; each lives off its client's INR.
        self.publisher_names: List[List[NameSpecifier]] = []
        self.publisher_ids: List[List[int]] = []
        for c in range(inrs):
            names, ids = [], []
            for k in range(scale.publishers_per_client):
                name = NameSpecifier.from_dict(
                    {"service": ("e2e-pub", {"owner": f"c{c}", "slot": f"k{k}"})}
                )
                names.append(name)
                ids.append(
                    self._add(name, f"pub-{c}-{k}", (c + 1 + k % (inrs - 1)) % inrs)
                )
            self.publisher_names.append(names)
            self.publisher_ids.append(ids)
        # Multicast groups: four members each, none on the sender's INR.
        self.group_queries: List[List[NameSpecifier]] = []
        self.group_ids: List[List[Tuple[int, ...]]] = []
        for c in range(inrs):
            queries, members = [], []
            for g in range(scale.groups_per_client):
                ident = f"h{c}g{g}"
                queries.append(
                    NameSpecifier.from_dict(
                        {"service": ("e2e-group", {"id": ident, "member": "*"})}
                    )
                )
                members.append(tuple(
                    self._add(
                        NameSpecifier.from_dict(
                            {"service": ("e2e-group", {"id": ident, "member": f"m{m}"})}
                        ),
                        f"grp-{ident}-{m}", (c + 1 + m % (inrs - 1)) % inrs,
                    )
                    for m in range(scale.group_size)
                ))
            self.group_queries.append(queries)
            self.group_ids.append(members)

    def _build_oracle(self, seed: int) -> None:
        scale = self.scale
        rng = random.Random(seed * 7919 + 11)
        self.index_by_key = {
            name.canonical_key(): index for index, name in enumerate(self.names)
        }
        #: expected early-binding answer per uniform service
        self.bindings = []
        for index in range(scale.names):
            service = self.receivers[index]
            self.bindings.append([(_endpoint_of(service), self.metrics[index])])
        order = list(range(scale.names))
        rng.shuffle(order)
        self.hot = order[:scale.hot_names]
        # Discovery filters: a real name with one leaf value wild-carded.
        self.filters: List[NameSpecifier] = []
        self.filter_keys: List[tuple] = []
        self.filter_matches: List[Set[int]] = []
        for _ in range(scale.filters):
            wild = self.names[rng.randrange(scale.names)].copy()
            leaves = [pair for pair in wild.walk() if pair.is_leaf]
            leaves[rng.randrange(len(leaves))].value = "*"
            query = wild.canonical_key()
            self.filters.append(wild)
            self.filter_keys.append(query)
            self.filter_matches.append({
                index for index, name in enumerate(self.names)
                if key_matches(query, name.canonical_key())
            })
        #: services a rename never picks: a hot or filter-matched name
        #: that moved would make concurrent queries' answers depend on
        #: how far its update has propagated
        self.pinned: Set[int] = set(self.hot).union(*self.filter_matches)
        #: renames whose propagation window is still open, oldest first
        self.open_renames: deque = deque()
        self.renaming: Set[int] = set()
        #: last payload cached under each publisher name at its client's INR
        self.filled: List[List[Optional[bytes]]] = [
            [None] * scale.publishers_per_client for _ in range(scale.inrs)
        ]

    def _settle(self) -> None:
        total = len(self.receivers)
        if not self.spec.quiet:
            # Run to a fixed virtual time past every INR's first round
            # of periodic updates (sent by t=21, digested by t=27), so
            # each build pays for exactly that round.
            self.sim.run(until=30.0)
        for _ in range(10):
            self.domain.run(1.0)
            if all(inr.name_count() == total for inr in self.inrs):
                return
        raise RuntimeError(
            "domain did not converge: "
            f"{[inr.name_count() for inr in self.inrs]} of {total} names"
        )

    # ------------------------------------------------------------------
    # Executing one op through the public client API
    # ------------------------------------------------------------------
    def execute(self, op: Op) -> None:
        """Issue ``op`` and step the simulator until it settles."""
        kind = op.kind
        if kind == RENAME:
            self.receivers[op.target].rename(op.name)
            self.sim.run_for(RENAME_WINDOW)
            return
        client = self.clients[op.client]
        step = self.sim.step
        budget = MAX_STEPS_PER_OP
        if kind == RESOLVE or kind == DISCOVER:
            reply = (
                client.resolve_early(op.name) if kind == RESOLVE
                else client.discover(op.name)
            )
            op.reply = reply
            while not reply.settled and budget and step():
                budget -= 1
            return
        arrivals = self.arrivals
        op.arrivals_from = len(arrivals)
        if kind == MULTICAST:
            client.send_multicast(op.name, op.payload)
        elif kind == FILL:
            client.send_anycast(
                op.name, op.payload,
                source=self.publisher_names[op.client][op.target],
                cache_lifetime=CACHE_LIFETIME,
            )
        elif kind == ASK:
            client.send_anycast(
                op.name, op.payload, source=client.name, accept_cached=True
            )
        else:
            client.send_anycast(op.name, op.payload)
        need = op.arrivals_from + len(op.expect)
        while len(arrivals) < need and budget and step():
            budget -= 1

    # ------------------------------------------------------------------
    # Checking it against the oracle
    # ------------------------------------------------------------------
    def verify(self, op: Op) -> int:
        """How many ops this check found wrong: ``op`` itself, plus any
        earlier rename whose propagation window has now closed."""
        wrong = self._close_renames(self.sim.now) if self.open_renames else 0
        kind = op.kind
        if kind == RESOLVE:
            good = op.reply.done and op.reply.value == op.expect
        elif kind == DISCOVER:
            good = op.reply.done and sorted(
                (name.canonical_key(), metric) for name, metric in op.reply.value
            ) == op.expect
        elif kind == RENAME:
            op.due = self.sim.now + RENAME_CHECK_AFTER - RENAME_WINDOW
            self.open_renames.append(op)
            good = True
        else:
            got = self.arrivals[op.arrivals_from:]
            del self.arrivals[:]
            good = len(got) == len(op.expect) and set(got) == op.expect
        return wrong if good else wrong + 1

    def _close_renames(self, now: float) -> int:
        wrong = 0
        while self.open_renames and self.open_renames[0].due <= now:
            op = self.open_renames.popleft()
            self.renaming.discard(op.target)
            if not self._verify_rename(op):
                wrong += 1
        return wrong

    def drain(self) -> int:
        """Let every open rename window close; returns how many of
        those renames had not propagated."""
        if not self.open_renames:
            return 0
        self.sim.run(until=self.open_renames[-1].due)
        return self._close_renames(self.sim.now)

    def _verify_rename(self, op: Op) -> bool:
        announcer = self.receivers[op.target].announcer
        for inr in self.inrs:
            tree = inr.trees["default"]
            if not any(r.announcer == announcer for r in tree.lookup(op.name)):
                return False
            if any(r.announcer == announcer for r in tree.lookup(op.old_name)):
                return False
        return True

    def apply_rename(self, index: int, new_name: NameSpecifier) -> NameSpecifier:
        """Move the oracle's view of service ``index`` to ``new_name``;
        returns the name it had."""
        old = self.names[index]
        del self.index_by_key[old.canonical_key()]
        self.index_by_key[new_name.canonical_key()] = index
        self.names[index] = new_name
        self.renaming.add(index)
        return old

    def fresh_name(self) -> NameSpecifier:
        """A uniform name no service advertises and no filter matches."""
        while True:
            name = self._generator.random_name()
            key = name.canonical_key()
            if key in self.index_by_key:
                continue
            if any(key_matches(query, key) for query in self.filter_keys):
                continue
            return name

    # ------------------------------------------------------------------
    # Exact counters the program keeps (never timings)
    # ------------------------------------------------------------------
    def wire_bytes(self) -> int:
        return sum(link.stats.bytes for _, link in self.domain.network.links)

    def counters(self) -> Dict[str, float]:
        sim, network = self.sim, self.domain.network
        out: Dict[str, float] = {
            "events": sim.events_processed,
            "pending": sim.pending_events,
            "wire_bytes": self.wire_bytes(),
            "wire_messages": sum(link.stats.messages for _, link in network.links),
            "delivered": network.delivered,
        }
        for field in (
            "lookups", "packets_forwarded", "update_names_processed",
            "advertisements_processed", "packets_answered_from_cache",
            "packets_delivered_locally",
        ):
            out[field] = sum(getattr(inr.stats, field) for inr in self.inrs)
        out["packets_dropped"] = sum(inr.stats.packets_dropped for inr in self.inrs)
        trees = [tree for inr in self.inrs for tree in inr.trees.values()]
        trees += [inr.cache.index for inr in self.inrs if inr.cache is not None]
        out["memo_hits"] = sum(tree.memo_hits for tree in trees)
        out["memo_misses"] = sum(tree.memo_misses for tree in trees)
        caches = [inr.cache for inr in self.inrs if inr.cache is not None]
        out["cache_hits"] = sum(cache.hits for cache in caches)
        out["cache_misses"] = sum(cache.misses for cache in caches)
        out["client_retries"] = sum(c.stats.retries for c in self.clients)
        out["client_requests"] = sum(c.stats.requests_sent for c in self.clients)
        collector = self.domain.collector
        out["obs_spans"] = len(collector.tracer.spans) if collector else 0
        return out


def _endpoint_of(service) -> Endpoint:
    return Endpoint(host=service.address, port=service.port, transport=service.transport)


class OpStream:
    """The seeded op sequence of one workload: op ``i`` is a function of
    the seed and of ``i`` alone (plus the renames ops before it made)."""

    def __init__(self, world: World, seed: int) -> None:
        self.world = world
        self.rng = random.Random(seed * 1000003 + 17)
        self.issued = 0
        kinds, cumulative, total = [], [], 0.0
        for kind, weight in world.spec.mix:
            total += weight
            kinds.append(kind)
            cumulative.append(total)
        cumulative[-1] = 1.0
        self._kinds = kinds
        self._cumulative = cumulative

    def _payload(self) -> bytes:
        stamp = b"%012d" % self.issued
        return stamp + bytes(PAYLOAD_BYTES - len(stamp))

    def _settled_service(self, avoid_inr: int = -1) -> int:
        """A uniform service whose name is the same at every INR (no
        rename in flight), optionally attached to another INR than
        ``avoid_inr``."""
        world, rng = self.world, self.rng
        inrs = world.scale.inrs
        while True:
            index = rng.randrange(world.scale.names)
            if index % inrs != avoid_inr and index not in world.renaming:
                return index

    def _rename_target(self) -> int:
        world, rng = self.world, self.rng
        while True:
            index = rng.randrange(world.scale.names)
            if index not in world.pinned and index not in world.renaming:
                return index

    def next(self) -> Op:
        world, rng = self.world, self.rng
        scale = world.scale
        draw = rng.random()
        position = 0
        while draw >= self._cumulative[position]:
            position += 1
        kind = self._kinds[position]
        client = rng.randrange(scale.inrs)
        op = Op(kind, client)
        self.issued += 1
        if kind == RESOLVE:
            if rng.random() < 0.5:
                index = world.hot[rng.randrange(len(world.hot))]
            else:
                index = self._settled_service()
            op.name = world.names[index]
            op.expect = world.bindings[index]
        elif kind == DISCOVER:
            which = rng.randrange(len(world.filters))
            op.name = world.filters[which]
            op.expect = sorted(
                (world.names[index].canonical_key(), world.metrics[index])
                for index in world.filter_matches[which]
            )
        elif kind == RENAME:
            op.target = self._rename_target()
            op.name = world.fresh_name()
            op.old_name = world.apply_rename(op.target, op.name)
        else:
            op.payload = self._payload()
            if kind == MULTICAST:
                group = rng.randrange(scale.groups_per_client)
                op.name = world.group_queries[client][group]
                op.expect = {
                    (rid, op.payload) for rid in world.group_ids[client][group]
                }
            elif kind == ASK:
                slot = rng.randrange(scale.publishers_per_client)
                op.name = world.publisher_names[client][slot]
                cached = world.filled[client][slot]
                if cached is None:
                    op.expect = {(world.publisher_ids[client][slot], op.payload)}
                else:
                    op.expect = {(world.client_ids[client], cached)}
            else:
                index = self._settled_service(avoid_inr=client)
                op.name = world.names[index]
                op.expect = {(index, op.payload)}
                if kind == FILL:
                    op.target = rng.randrange(scale.publishers_per_client)
                    world.filled[client][op.target] = op.payload
        return op
