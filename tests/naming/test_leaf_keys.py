"""Equal leaves share one key tuple.

A leaf av-pair's canonical key is ``(attribute, value, ())``. Names
repeat their leaves many times over, so every way a name gets keyed —
parsed from text, built and keyed, decoded from bytes, copied — hands
back the one tuple ``repro.naming.avpair`` holds for that leaf. The
table is bounded: filling it past ``LEAF_KEY_CAPACITY`` clears it, and
keys made on either side of a clear are still equal values.
"""

import pytest

import repro.naming.avpair as avpair_module
from repro.naming import AVPair, NameSpecifier, decode_name, encode_name, parse_name_specifier


def _leaf_keys(name: NameSpecifier):
    return [pair._key_cache for pair in name.walk() if pair.is_leaf]


def _generated() -> NameSpecifier:
    name = NameSpecifier()
    name.add_pair(AVPair("service", "camera")).add_child(AVPair("entity", "transmitter"))
    name.add_pair(AVPair("room", "510"))
    name.canonical_key()
    return name


def test_parsed_generated_decoded_and_copied_leaves_share_one_key():
    text = "[service=camera[entity=transmitter]][room=510]"
    parsed = parse_name_specifier(text)
    again = parse_name_specifier(" [room = 510] [service=camera [entity=transmitter]] ")
    generated = _generated()
    decoded = decode_name(encode_name(generated))
    decoded.canonical_key()
    copied = parsed.copy()
    copied.canonical_key()
    names = [parsed, again, generated, decoded, copied]
    by_leaf = {}
    for name in names:
        for key in _leaf_keys(name):
            by_leaf.setdefault(key, set()).add(id(key))
    assert set(by_leaf) == {("entity", "transmitter", ()), ("room", "510", ())}
    assert all(len(ids) == 1 for ids in by_leaf.values()), by_leaf
    # The names are as equal as they were; only the tuples are shared.
    assert len({name.canonical_key() for name in names}) == 1


def test_interior_keys_are_equal_and_their_leaves_shared():
    one = parse_name_specifier("[a=b[c=d]]")
    two = parse_name_specifier("[a=b[c=d]]")
    (root_one,), (root_two,) = one._roots, two._roots
    assert root_one._key_cache == root_two._key_cache
    assert root_one.children[0]._key_cache is root_two.children[0]._key_cache


def test_the_table_stays_bounded_and_keys_stay_equal_across_a_clear(monkeypatch):
    capacity = 8
    monkeypatch.setattr(avpair_module, "LEAF_KEY_CAPACITY", capacity)
    monkeypatch.setattr(avpair_module, "_LEAF_KEYS", {})
    before = parse_name_specifier("[a=early]")
    (early,) = _leaf_keys(before)
    cleared = False
    for index in range(5 * capacity):
        parse_name_specifier(f"[t=v{index}]")
        AVPair(f"u{index}", "w").canonical_key()
        assert len(avpair_module._LEAF_KEYS) <= capacity
        cleared = cleared or early not in avpair_module._LEAF_KEYS
    assert cleared
    after = parse_name_specifier("[a=early]")
    (late,) = _leaf_keys(after)
    assert late is not early
    assert late == early and hash(late) == hash(early)
    assert after == before and hash(after) == hash(before)
    # From now on the new tuple is the shared one.
    assert _leaf_keys(parse_name_specifier("[a=early]"))[0] is late


@pytest.mark.parametrize("text", ["[a=*]", "[a=<=5]", "[a]"])
def test_query_leaves_are_shared_too(text):
    first, second = parse_name_specifier(text), parse_name_specifier(text)
    assert _leaf_keys(first)[0] is _leaf_keys(second)[0]
