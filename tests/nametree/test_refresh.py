"""``NameTree.refresh``: the record-less home of the refresh rule.

A resolver that receives "same name, same payload" again calls
``refresh`` with the record it found and the fields, and builds a
``NameRecord`` only when it declines; ``insert(name, record)``
delegates to the same body. The differential below drives generated
histories through both forms and through a literal model of the rule
``insert`` carried before the entry point existed (compare every
payload field, overwrite them all), and wants the same verdicts, record
fields, epochs and lookups — also when the very message object is
offered again (which the resolver offers to ``rehear`` first, and to
``refresh`` only when it is not recognised) and when a lifetime
shrinks (which the
bound that lets ``expire`` skip its scan must follow; the model's scan
of every deadline is the oracle for what a sweep collects).
"""

from collections import namedtuple

from hypothesis import given, settings, strategies as st

from repro.naming import NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree, Route

from ..conftest import make_record, parse, stores_to

ANNOUNCERS = [AnnouncerID("host-%d" % index, float(index)) for index in range(3)]
ENDPOINTS = [
    Endpoint("10.0.0.1", 9), Endpoint("10.0.0.2", 9), Endpoint("10.0.0.2", 10, "tcp"),
]
#: the second name is the first with its siblings reordered: same key
NAMES = [
    "[service=camera[id=a][kind=x]][room=510]",
    "[room=510][service=camera[kind=x][id=a]]",
    "[service=camera[id=b]][room=510]",
    "[service=printer[id=a]]",
]
QUERIES = ["[service=camera]", "[room=510]", "[service=*]", "[service=printer[id=a]]"]
NEXT_HOPS = [None, "inr-x", "inr-y"]

#: What one step does to the announcer's previous announcement.
KINDS = [
    "refresh", "reorder-endpoints", "other-endpoints", "metric", "route",
    "other-next-hop", "rename", "respell-name",
]


class _Model:
    """The rule as ``insert`` stated it at the parent commit."""

    def __init__(self):
        self.state = {}

    def announce(self, announcer, key, endpoints, metric, route, expires_at):
        known = self.state.get(announcer)
        if known is not None and known["key"] == key:
            changed = not (
                known["metric"] == metric
                and known["route"] == route
                and (
                    known["endpoints"] == endpoints
                    or sorted(known["endpoints"]) == sorted(endpoints)
                )
            )
        else:
            changed = True
        self.state[announcer] = {
            "key": key, "endpoints": tuple(endpoints), "metric": metric,
            "route": route, "expires_at": expires_at,
        }
        return changed

    def expire(self, now):
        gone = [a for a, s in self.state.items() if now >= s["expires_at"]]
        for announcer in gone:
            del self.state[announcer]
        return set(gone)


#: What the tree reads of a message: its endpoints tuple, by identity.
#: (What else it carries — name, metric — reaches ``refresh`` as
#: arguments; being immutable, the same object always carries the same.)
Message = namedtuple("Message", "name endpoints metric")


def _record(announcer, endpoints, metric, next_hop, route_metric, expires_at,
            message=None):
    # A record is built knowing no message: only ``refresh`` learns one.
    return NameRecord(
        announcer=announcer, endpoints=list(endpoints), anycast_metric=metric,
        route=Route(next_hop, route_metric), expires_at=expires_at,
    )


def _via_refresh(tree, name, announcer, *fields):
    """The resolver's order: a message offered with its own endpoints
    is first tried by ``rehear``, then ``refresh``, then a graft."""
    endpoints, _metric, next_hop, route_metric, expires_at, message = fields
    record = tree.record_for(announcer)
    if (
        record is not None and endpoints is message.endpoints
        and tree.rehear(record, message, next_hop, route_metric, expires_at)
    ):
        return False
    news = None if record is None else tree.refresh(record, name, *fields)
    if news is None:
        news = tree.insert(name, _record(announcer, *fields)).changed
    return news


def _via_insert(tree, name, *fields):
    return tree.insert(name, _record(*fields)).changed


def _snapshot(tree):
    return {
        record.announcer: (
            record.advertised_name.canonical_key(), record.endpoints,
            record.anycast_metric,
            record.route, record.expires_at, tree.get_name(record).to_wire(),
        )
        for record in tree.records()
    }


steps = st.lists(
    st.tuples(
        st.sampled_from(range(len(ANNOUNCERS))),
        st.sampled_from(KINDS + ["expire"]),
        st.integers(min_value=0, max_value=5),      # which alternative
        st.booleans(),                              # re-send the name object
        st.sampled_from([0.5, 4.0, 11.0]),          # virtual time step
        st.booleans(),                              # re-send the message object
        st.sampled_from([10.0, 10.0, 3.0]),         # lifetime granted
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_refresh_and_forced_insert_agree_with_the_parent_rule(history):
    refreshed, inserted, model = NameTree(), NameTree(), _Model()
    last = {}       # announcer -> the fields it announced last
    sent = {}       # announcer -> the message that carried them
    now = 0.0
    for who, kind, pick, resend, dt, resend_message, lifetime in history:
        now += dt
        announcer = ANNOUNCERS[who]
        if kind == "expire":
            gone = model.expire(now)
            for tree in (refreshed, inserted):
                assert {r.announcer for r in tree.expire(now)} == gone
        else:
            text, name, endpoints, metric, next_hop, route_metric = last.get(
                announcer, (NAMES[0], None, [ENDPOINTS[0]], 0.0, None, 0.0)
            )
            if kind == "reorder-endpoints":
                endpoints = endpoints[::-1] if len(endpoints) > 1 else ENDPOINTS[:2]
            elif kind == "other-endpoints":
                endpoints = [ENDPOINTS[pick % 3], ENDPOINTS[(pick + 1) % 3]][: 1 + pick % 2]
            elif kind == "metric":
                metric = float(pick % 3)
            elif kind == "route":
                route_metric = 0.25 * (pick % 3)
            elif kind == "other-next-hop":
                next_hop = NEXT_HOPS[pick % 3]
            elif kind == "rename":
                text, name = NAMES[2 + pick % 2], None
            elif kind == "respell-name":
                text, name = NAMES[pick % 2], None
            if name is None or not resend:
                name = parse(text)
            last[announcer] = (text, name, endpoints, metric, next_hop, route_metric)
            # The same message again, when it can still say this: what
            # it carries is immutable, the route is the receiver's own
            # term, and endpoints other than its own are what a receiver
            # offers when the message brought none.
            message = sent.get(announcer)
            if not (
                resend_message and message is not None
                and message.name is name and message.metric == metric
            ):
                message = sent[announcer] = Message(name, tuple(endpoints), metric)
            offered = (
                message.endpoints if list(message.endpoints) == endpoints
                else tuple(endpoints)
            )
            epoch_before = refreshed._epoch
            known = model.state.get(announcer)
            same_name = known is not None and known["key"] == name.canonical_key()
            fields = (
                announcer, offered, metric, next_hop, route_metric, now + lifetime,
                message,
            )
            verdict = model.announce(
                announcer, name.canonical_key(), tuple(endpoints), metric,
                Route(next_hop, route_metric), now + lifetime,
            )
            assert _via_refresh(refreshed, name, *fields) is verdict
            assert _via_insert(inserted, name, *fields) is verdict
            if same_name:
                assert refreshed._epoch == epoch_before  # the memo stays warm
        assert refreshed._epoch == inserted._epoch
        assert _snapshot(refreshed) == _snapshot(inserted)
        assert {
            announcer: (s["key"], s["endpoints"], s["metric"], s["route"], s["expires_at"])
            for announcer, s in model.state.items()
        } == {a: fields[:5] for a, fields in _snapshot(refreshed).items()}
        for query in QUERIES:
            found = {r.announcer for r in refreshed.lookup(parse(query))}
            assert found == {r.announcer for r in inserted.lookup(parse(query))}


class TestRefreshEntryPoint:
    def _grafted(self, tree, text="[service=x[id=1]]", **fields):
        name, record = parse(text), make_record(**fields)
        tree.insert(name, record)
        return name, record

    def _fields(self, record, **override):
        fields = {
            "endpoints": tuple(record.endpoints),
            "anycast_metric": record.anycast_metric,
            "next_hop": record.route.next_hop,
            "route_metric": record.route.metric,
            "expires_at": record.expires_at,
        }
        fields.update(override)
        return fields

    def _refresh(self, tree, name, record, **override):
        return tree.refresh(record, name, **self._fields(record, **override))

    def test_pure_refresh_moves_only_the_expiry(self, tree):
        name, record = self._grafted(tree, expires_at=10.0)
        endpoints, route, epoch = record.endpoints, record.route, tree._epoch
        assert self._refresh(tree, name, record, expires_at=25.0) is False
        assert record.expires_at == 25.0
        assert record.endpoints is endpoints and record.route is route
        assert tree._epoch == epoch and tree.record_for(record.announcer) is record

    def test_declines_and_touches_nothing_for_a_stranger_or_another_name(self, tree):
        name, record = self._grafted(tree, expires_at=10.0)
        # A stranger has no record for the caller to offer.
        assert tree.record_for(make_record().announcer) is None
        assert self._refresh(
            tree, parse("[service=x[id=2]]"), record, expires_at=99.0
        ) is None
        assert record.expires_at == 10.0 and len(tree) == 1

    def test_reports_payload_differences(self, tree):
        name, record = self._grafted(tree, metric=1.0)
        assert self._refresh(tree, name, record, anycast_metric=2.0) is True
        assert record.anycast_metric == 2.0
        assert self._refresh(tree, name, record, next_hop="inr-x", route_metric=0.5) is True
        assert record.route == Route("inr-x", 0.5)
        assert self._refresh(tree, name, record, route_metric=0.75) is True
        other = (Endpoint("10.9.9.9", 1),)
        assert self._refresh(tree, name, record, endpoints=other) is True
        assert record.endpoints is other
        assert self._refresh(tree, name, record) is False

    def test_reordered_endpoints_are_stored_but_are_not_news(self, tree):
        name, record = self._grafted(tree)
        first, second = Endpoint("10.0.0.1", 9), Endpoint("10.0.0.2", 9)
        assert self._refresh(tree, name, record, endpoints=(first, second)) is True
        assert self._refresh(tree, name, record, endpoints=(second, first)) is False
        assert record.endpoints == (second, first)

    def test_a_resent_name_object_is_recognized_without_a_key_comparison(
        self, tree, monkeypatch
    ):
        name, record = self._grafted(tree)
        keyed = []
        real = NameSpecifier.canonical_key
        monkeypatch.setattr(
            NameSpecifier, "canonical_key",
            lambda self: keyed.append(self) or real(self),
        )
        assert self._refresh(tree, name, record) is False
        assert keyed == []
        assert self._refresh(tree, parse(name.to_wire()), record) is False
        assert len(keyed) == 2  # another object is compared by value, key to key

    def test_a_message_heard_again_moves_only_the_deadline(self, tree):
        name, record = self._grafted(tree, expires_at=10.0)
        message = Message(name, tuple(record.endpoints), record.anycast_metric)

        def hear(heard=message, **override):
            # The resolver's order: rehear first, refresh when it declines.
            override.setdefault("endpoints", heard.endpoints)
            fields = self._fields(record, **override)
            if fields["endpoints"] is heard.endpoints and tree.rehear(
                record, heard, fields["next_hop"], fields["route_metric"],
                fields["expires_at"],
            ):
                return False
            return tree.refresh(record, name, message=heard, **fields)

        with stores_to(NameRecord, "heard") as compared:
            assert hear() is False and compared == [record]   # compared, remembered
            assert record.heard is message
            del compared[:]
            assert hear(expires_at=70.0) is False
            assert hear(expires_at=40.0) is False             # a life may shrink too
            assert compared == [] and record.expires_at == 40.0
            # What the message does not carry is compared every time: the
            # route is the receiver's own term, and endpoints other than
            # the message's own tuple are what stood in for an empty one.
            for moved in ({"next_hop": "inr-x"}, {"route_metric": 0.5}):
                assert hear(**moved) is True and compared == [record]
                del compared[:]
                assert hear() is False and compared == []
            stand_in = tuple(list(message.endpoints))
            assert hear(endpoints=stand_in) is False and record.heard is None
            assert hear() is False and record.heard is message  # learnt again
            assert compared == [record, record]
            del compared[:]
            assert hear() is False and compared == []
            # ...and so is any other object, however equal,
            twin = Message(*message)
            assert hear(twin) is False
            assert compared == [record] and record.heard is twin

    def test_every_payload_store_drops_the_kept_update(self, tree):
        name, record = self._grafted(tree)
        first, second = Endpoint("10.0.0.1", 9), Endpoint("10.0.0.2", 9)
        kept = Message(name, (), 0.0)   # anything that carries the name

        def keep():
            record.kept_update = kept

        keep()
        assert self._refresh(tree, name, record, expires_at=50.0) is False
        assert record.kept_update is kept           # nothing new: said again as it is
        for store in (
            {"anycast_metric": 2.0}, {"next_hop": "inr-x", "route_metric": 0.5},
            {"endpoints": (first, second)},
            {"endpoints": (second, first)},         # not news, but it is a store
        ):
            keep()
            self._refresh(tree, name, record, **store)
            assert record.kept_update is None, store
        keep()
        record.heard = kept
        tree.remove(record)
        tree.insert(parse("[service=y]"), record)   # a graft writes everything
        assert record.kept_update is None and record.heard is None

    def test_insert_of_a_known_name_discards_the_offered_record(self, tree):
        name, record = self._grafted(tree, metric=1.0)
        offered = NameRecord(
            announcer=record.announcer, endpoints=list(record.endpoints),
            anycast_metric=3.0, expires_at=7.0,
        )
        outcome = tree.insert(parse(name.to_wire()), offered)
        assert outcome.record is record and not outcome.created and outcome.changed
        assert (record.anycast_metric, record.expires_at) == (3.0, 7.0)
        assert offered.attachments == () and offered.advertised_name is None
