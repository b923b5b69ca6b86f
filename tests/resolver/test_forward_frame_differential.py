"""The forwarded frame is the re-encoded one, byte for byte.

An INR recognises a name section it has understood before by its bytes
(``DataPlane.name_of``: the trees' retained names, then a bounded
table) and forwards a canonical frame by patching a copy of it
(``InsMessage.forwarded_frame``). A seeded corpus of frames —
well-formed and not, laid out as ``encode`` would and as no encoder
does — is pushed through the same small domain as shipped and under
``tests/literal.py``'s ``literal_domain()``, whose arms include the
behaviour these shortcuts replaced: every section through
``NameSpecifier.parse``, every forward through ``hop_decremented()`` …
``encode()``. Everything observable must be equal: every byte put on
every link, every ``InrStats.snapshot()``, every span, every delivery.

``src/`` has one forwarding path and no switch. Tier-1 runs a 5k-frame
slice; ``check_frames`` is what the CI ``test`` job calls with forty
times that.
"""

import itertools
import random
import struct
from contextlib import contextmanager

from repro.experiments import InsDomain
from repro.message import HEADER_SIZE, InsMessage
from repro.nametree import AnnouncerID
from repro.obs import TraceContext, spans_to_jsonl
from repro.resolver import DataPacket, InrConfig
from repro.resolver.ports import INR_PORT

from ..literal import ARMS, domain_state, literal_domain, unfired
from ..protocol_trace import ProtocolTrace

VERDICTS = ("patched", "re-encoded", "dropped malformed", "dropped hop-limit")

CAMERA = "[service=camera[entity=transmitter][id=c1]][room=510]"
PRINTER = "[service=printer[id=p1]][room=511]"
VIEWER = "[service=viewer[id=v1]]"
ACCENTED = "[service=caméra[id=名]][room=512]"
REPLICA = "[service=mirror[id=r]]"
LATE = "[service=late[id=x]]"
LAB = "[vspace=lab][service=scope[id=s1]]"
MEMBERS = [f"[service=group[id=g][member=m{i}]]" for i in range(3)]

#: (text, weight). Destinations: advertised names byte for byte, the
#: same names spelled as no encoder would, queries no tree retains,
#: names nobody routes, and sections that do not parse at all.
DESTINATIONS = (
    (CAMERA, 8), (PRINTER, 4), (ACCENTED, 3), (REPLICA, 3), (VIEWER, 3),
    (MEMBERS[0], 2), (LATE, 4), (LAB, 3),
    ("[service=camera[entity=transmitter]][room=510]", 5),   # partial
    ("[room=510][service=camera[id=c1][entity=transmitter]]", 2),  # reordered
    ("[service=group[id=g][member=*]]", 8),                  # the group
    ("[service=group[id=g][member]]", 3),                    # value-less
    ("[service=*]", 2), ("[room=>=511]", 2),
    ("[ service = camera ] [room=510]", 4),                  # spaced out
    ("[service=camera[entity=transmitter][id=c1]][room=510] ", 2),
    ("[service=caméra　[id=名]]", 2),
    ("[service=nobody[id=0]]", 3),
    ("[service=camera[note=" + "n" * 300 + "]]", 2),          # too long to keep
    ("[vspace=nowhere][service=scope]", 2),
    ("", 2), ("  \n", 1), ("[[", 2), ("[service=camera", 1), ("[a=b]]", 1),
    ("[a=1][a=2]", 1), ("[a=b" * 65 + "]" * 65, 1),
)
SOURCES = (
    ("", 10), (VIEWER, 8), (PRINTER, 3), (ACCENTED, 2),
    ("[service=stranger[id=é]]", 3),                         # unadvertised
    ("[ service = viewer [ id = v1 ] ]", 2), (" ", 1),
    ("[service=viewer[id=*]]", 2),                           # not addressable
    ("[[", 1), ("]", 1),
)
LAYOUTS = (
    ("canonical", 14), ("gap", 3), ("crossed", 1), ("overrun", 1),
    ("under-floor", 1), ("truncated", 1),
)

_FIXED = struct.Struct("!BBHIIIHH")


def _pick(rng, weighted):
    return rng.choices(
        [item for item, _ in weighted], [weight for _, weight in weighted]
    )[0]


def _fresh_text(rng) -> str:
    """A compact name nobody has sent before (and nobody routes)."""
    return f"[service=once[id=n{rng.randrange(1 << 40):x}]][room={rng.randrange(9)}]"


def generate_frame(rng: random.Random) -> bytes:
    """One frame, built field by field so that anything a header can
    say — and several things it cannot — gets said."""
    destination = _pick(rng, DESTINATIONS) if rng.random() < 0.93 else _fresh_text(rng)
    source = _pick(rng, SOURCES) if rng.random() < 0.95 else _fresh_text(rng)
    layout = _pick(rng, LAYOUTS)
    traced = rng.random() < 0.4
    flags = 0x01 if rng.random() < 0.9 else 0          # late binding, mostly
    flags |= 0x02 if rng.random() < 0.35 else 0        # multicast
    flags |= 0x04 if rng.random() < 0.15 else 0        # accept cached
    flags |= 0x08 if traced else 0
    if rng.random() < 0.08:
        flags |= rng.randrange(1, 16) << 4             # reserved bits
    unused = rng.randrange(1, 1 << 16) if rng.random() < 0.08 else 0
    version = 1 if rng.random() < 0.98 else rng.choice((0, 2, 255))
    hop_limit = rng.choice((0, 1, 1, 2, 32, 32, 32, 32, 65535))
    cache_lifetime = rng.choice((0, 0, 0, 5))
    source_bytes = source.encode("utf-8")
    destination_bytes = destination.encode("utf-8")
    data = rng.randbytes(rng.randrange(0, 40))
    context = b""
    if traced:
        context = TraceContext(
            rng.randrange(1, 1 << 62), rng.randrange(1, 1 << 62), rng.randrange(1 << 62)
        ).pack()
    floor = HEADER_SIZE + len(context)
    gap = rng.randbytes(rng.randrange(1, 9)) if layout == "gap" else b""
    source_offset = floor + len(gap)
    destination_offset = source_offset + len(source_bytes)
    data_offset = destination_offset + len(destination_bytes)
    body = context + gap + source_bytes + destination_bytes + data
    if layout == "crossed":
        source_offset, destination_offset = destination_offset + 1, source_offset
    elif layout == "overrun":
        data_offset = HEADER_SIZE + len(body) + rng.randrange(1, 5)
    elif layout == "under-floor":
        source_offset = floor - rng.randrange(1, floor + 1)
    frame = _FIXED.pack(
        version, flags, unused, source_offset, destination_offset, data_offset,
        hop_limit, cache_lifetime,
    ) + body
    if layout == "truncated":
        frame = frame[:rng.randrange(len(frame))]
    return frame


# ----------------------------------------------------------------------
# The shipped world and the literal one
# ----------------------------------------------------------------------
@contextmanager
def forwards_counted(tally: dict):
    """Count which way each shipped forward went into ``tally``."""
    shipped = InsMessage.forwarded_frame

    def counted(message, trace=None):
        tally["patched" if message._frame is not None else "re-encoded"] += 1
        return shipped(message, trace)

    InsMessage.forwarded_frame = counted
    try:
        yield
    finally:
        InsMessage.forwarded_frame = shipped


@contextmanager
def announcers_from_one():
    """AnnouncerIDs count up process-wide, and a record's hash — hence
    set order — includes them: every world starts from the same one."""
    announcers = AnnouncerID._sequence
    AnnouncerID._sequence = itertools.count(1)
    try:
        yield
    finally:
        AnnouncerID._sequence = announcers


def run_world(frames, seed: int) -> dict:
    """inr-a — inr-b — inr-c with receivers on each, custody and tracing
    on, fed ``frames`` one every 100 virtual ms; everything observable."""
    with announcers_from_one():
        shape = random.Random(seed)
        domain = InsDomain(seed=seed, config=InrConfig(enable_custody=True, custody_ttl=120.0))
        trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
        collector = domain.observe()
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        domain.network.configure_link("inr-b", "inr-c", latency=0.001)
        domain.network.configure_link("inr-a", "inr-c", latency=0.05)
        c = domain.add_inr(address="inr-c", vspaces=("default", "lab"))
        inrs = (a, b, c)
        assert c.neighbors.parent.address == "inr-b"

        deliveries = []

        def receiver(label):
            def on_message(message, source):
                deliveries.append((
                    domain.now, label, source, message.data,
                    message.destination.to_wire(), message.source.to_wire(),
                    message.destination.canonical_key(),
                    message.binding, message.delivery, message.hop_limit,
                    message.cache_lifetime, message.accept_cached, message.trace,
                ))
            return on_message

        def serve(text, resolver, metric=0.0):
            service = domain.add_service(text, resolver=resolver, metric=metric)
            service.on_message(receiver(f"{text}@{resolver.address}"))
            return service

        serve(CAMERA, c)
        serve(PRINTER, b)
        serve(VIEWER, a)
        serve(ACCENTED, c)
        serve(REPLICA, b, metric=2.0)
        serve(REPLICA, c, metric=1.0)
        serve(LAB, c)
        for member, resolver in zip(MEMBERS, inrs):
            serve(member, resolver)
        domain.run(2.0)

        wire = []

        def drain():
            # the bytes, not the packets: a packet keeps its decoded message
            wire.extend(
                (e.time, e.source, e.destination, e.port, e.size,
                 e.payload.raw if e.kind == "DataPacket" else e.kind)
                for e in trace.events
            )
            trace.events.clear()

        sender = domain.network.add_node("fuzzer").address
        for index, frame in enumerate(frames):
            if index == len(frames) // 2:
                # What custody was holding for this name is released.
                serve(LATE, c)
            packet = DataPacket(raw=frame)
            domain.network.send(
                sender, shape.choice(inrs).address, INR_PORT, packet,
                packet.wire_size(),
            )
            domain.run(0.1)
            drain()
        domain.run(5.0)
        drain()
        for inr in inrs:
            for tree in inr.trees.values():
                assert len(tree._by_text) <= len(tree)
        assert trace.dropped == 0
        return {
            "wire": wire,
            "spans": spans_to_jsonl(collector.tracer.spans),
            "deliveries": deliveries,
            **domain_state(domain, ()),
        }


def check_frames(count: int, seed: int = 7) -> dict:
    """Push ``count`` corpus frames through both worlds; returns how
    often the shipped one reached each of its four verdicts, and every
    literal arm's firing tally."""
    rng = random.Random(seed)
    frames = [generate_frame(rng) for _ in range(count)]
    tally = dict.fromkeys(VERDICTS + ARMS, 0)
    with forwards_counted(tally):
        shipped = run_world(frames, seed)
    with literal_domain(tally):
        literal = run_world(frames, seed)
    for observed in literal:
        if observed != "wire":
            assert shipped[observed] == literal[observed], observed
    for sent, expected in zip(shipped["wire"], literal["wire"]):
        assert sent == expected
    assert len(shipped["wire"]) == len(literal["wire"])
    assert shipped["deliveries"], "nothing was delivered"
    tally["dropped malformed"] += sum(s["drops_malformed"] for s in shipped["inrs"])
    tally["dropped hop-limit"] += sum(s["drops_hop_limit"] for s in shipped["inrs"])
    return tally


def test_frame_corpus_slice():
    tally = check_frames(5_000)
    assert not unfired(tally), tally
    # The corpus is worth running only while it reaches every verdict.
    assert tally["patched"] > 1_000
    assert tally["re-encoded"] > 100
    assert tally["dropped malformed"] > 300
    assert tally["dropped hop-limit"] > 100


def test_the_generator_spells_frames_encode_would_and_frames_it_would_not():
    rng = random.Random(3)
    canonical = odd = undecodable = 0
    for _ in range(2_000):
        frame = generate_frame(rng)
        try:
            message = InsMessage.decode(frame)
        except ValueError:
            undecodable += 1
            continue
        if message.encode() == frame:
            assert message._frame is frame
            canonical += 1
        else:
            assert message._frame is None
            odd += 1
    assert min(canonical, odd, undecodable) > 200
