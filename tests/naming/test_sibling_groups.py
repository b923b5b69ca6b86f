"""Sibling groups are tuples, built whole where a whole group is read.

The parser, the binary decoder and ``copy()`` each build a sibling
group with one attribute set and store its tuple once, so a frame with
thousands of siblings costs linear time (a builder that scanned the
growing tuple for each new sibling would be quadratic), and a duplicate
anywhere in the group is still the ``DuplicateAttributeError`` it is
at the parent. A name weighs its av-pairs and one exact tuple per
sibling group.
"""

import gc
import random
import sys
import time

import pytest

from repro.experiments.workload import UniformWorkload
from repro.naming import (
    AVPair,
    BinaryNameError,
    DuplicateAttributeError,
    NameSpecifier,
    decode_name,
    encode_name,
    parse_name_specifier,
)
from repro.naming.binary import _write_varint

WIDTH = 16_384


def _text(attributes, parent=None):
    """Wire text: one ``[attribute=v]`` per attribute, at the top level
    or under ``[parent=q ...]``."""
    group = "".join(f"[{attribute}=v]" for attribute in attributes)
    return group if parent is None else f"[{parent}=q{group}]"


def _frame(attributes, parent=None):
    """The self-contained binary frame of :func:`_text`'s name, written
    by hand so that it may repeat an attribute."""
    table = {}
    body = bytearray()

    def enter(attribute, value):
        body.append(0x01)
        for token in (attribute, value):
            _write_varint(body, table.setdefault(token, len(table)))

    if parent is not None:
        enter(parent, "q")
    for attribute in attributes:
        enter(attribute, "v")
        body.append(0x02)
    if parent is not None:
        body.append(0x02)
    body.append(0x00)
    out = bytearray([0x01])
    _write_varint(out, len(table))
    for token in table:
        encoded = token.encode("utf-8")
        _write_varint(out, len(encoded))
        out.extend(encoded)
    return bytes(out + body)


def _attributes(width):
    return [f"a{index}" for index in range(width)]


def test_the_hand_written_frame_is_what_the_encoder_writes():
    attributes = _attributes(5)
    for parent in (None, "p"):
        assert _frame(attributes, parent) == encode_name(
            parse_name_specifier(_text(attributes, parent))
        )


@pytest.mark.parametrize("parent", [None, "p"])
def test_a_wide_group_parses_decodes_and_copies_in_order(parent):
    attributes = _attributes(WIDTH)
    parsed = parse_name_specifier(_text(attributes, parent))
    decoded = decode_name(_frame(attributes, parent))
    for name in (parsed, decoded, parsed.copy(), decoded.copy()):
        group = name._roots if parent is None else name._roots[0].children
        assert [pair.attribute for pair in group] == attributes
        assert name == parsed
    assert parsed.to_wire() == _text(attributes, parent)


#: Where the two siblings classifying one attribute stand in the group.
_DUPLICATES = [(0, 1), (WIDTH // 2, WIDTH // 2 + 1), (0, WIDTH - 1), (WIDTH - 2, WIDTH - 1)]


@pytest.mark.parametrize("parent", [None, "p"])
@pytest.mark.parametrize("first, second", _DUPLICATES)
def test_a_duplicate_anywhere_in_a_wide_group_is_refused(parent, first, second):
    attributes = _attributes(WIDTH)
    attributes[second] = attributes[first]
    with pytest.raises(DuplicateAttributeError, match="already present"):
        parse_name_specifier(_text(attributes, parent))
    with pytest.raises(BinaryNameError, match="already present"):
        decode_name(_frame(attributes, parent))


def test_one_at_a_time_builders_keep_their_checks():
    pair = AVPair("p", "q")
    name = NameSpecifier()
    for attribute in _attributes(50):
        pair.add_child(AVPair(attribute, "v"))
        name.add_pair(AVPair(attribute, "v"))
    with pytest.raises(DuplicateAttributeError, match="under p=q"):
        pair.add_child(AVPair("a49", "w"))
    with pytest.raises(DuplicateAttributeError, match="at the top level"):
        name.add_pair(AVPair("a0", "w"))
    with pytest.raises(DuplicateAttributeError):
        NameSpecifier([AVPair("a", "1"), AVPair("b", "2"), AVPair("a", "3")])
    assert len(pair.children) == len(name._roots) == 50


def _best_of_three(build, argument):
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        build(argument)
        best = min(best, time.perf_counter() - begin)
    return best


def test_building_a_group_is_linear_in_its_width():
    """Four times the width costs under eight times the time: a
    quadratic builder reads about sixteen."""
    quarter, full = _attributes(WIDTH // 4), _attributes(WIDTH)
    builds = {
        "parse": (parse_name_specifier, _text(quarter, "p"), _text(full, "p")),
        "decode": (decode_name, _frame(quarter, "p"), _frame(full, "p")),
        "copy": (
            NameSpecifier.copy,
            parse_name_specifier(_text(quarter, "p")),
            parse_name_specifier(_text(full, "p")),
        ),
    }
    gc.disable()
    try:
        ratios = {
            what: _best_of_three(build, wide) / _best_of_three(build, narrow)
            for what, (build, narrow, wide) in builds.items()
        }
    finally:
        gc.enable()
    assert all(ratio < 8 for ratio in ratios.values()), ratios


# ----------------------------------------------------------------------
# What a name weighs
# ----------------------------------------------------------------------
def _tuple_size(length):
    return sys.getsizeof((None,) * length)


def test_a_uniform_name_weighs_its_pairs_and_one_tuple_per_group():
    """d=3, r_a=3, r_v=3, n_a=2: 14 av-pairs in 7 sibling groups. With
    a dict per group instead (the roots and six interior pairs) the
    name weighs 2,288 bytes on CPython 3.11, against 1,392 as tuples."""
    name = UniformWorkload(
        rng=random.Random(1), depth=3, attribute_range=3, value_range=3,
        attributes_per_level=2,
    ).random_name()
    pairs = list(name.walk())
    assert len(pairs) == 14
    groups = [name._roots] + [pair.children for pair in pairs if not pair.is_leaf]
    assert len(groups) == 7
    bound = (
        sys.getsizeof(name)
        + sum(sys.getsizeof(pair) for pair in pairs)
        + sum(_tuple_size(len(group)) for group in groups)
        + sys.getsizeof(())  # every leaf shares the empty tuple
    )
    for built in (name, name.copy(), parse_name_specifier(name.to_wire())):
        seen = set()
        weight = 0
        for part in [built, built._roots] + [
            held for pair in built.walk() for held in (pair, pair._children)
        ]:
            if id(part) not in seen:
                seen.add(id(part))
                weight += sys.getsizeof(part)
        assert weight <= bound

