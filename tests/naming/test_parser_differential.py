"""The one-pass parser against the Figure 3 oracle.

``fig3_oracle`` is the recursive-descent parser this repo shipped until
the one-pass reader replaced it. Every string — generated names
re-spaced at random, value-less groups, range values, names at and past
the depth bound, and a seeded corpus of mutated and random strings —
must come out of both parsers as the same name (wire text, sibling
order, canonical key) or as the same ``NamingError`` subclass, and the
corpus also counts the leaf keys both parsers share.

:func:`check_corpus` is also what CI calls with a corpus forty times
the size tier-1 runs (``.github/workflows/ci.yml``, both Pythons: the
``re`` tokeniser has to agree with ``str.isspace`` on each).
"""

import itertools
import random
import re
import sys
import time
from typing import Iterator, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.naming.avpair as avpair_module
from repro.naming import (
    MAX_NAME_DEPTH,
    NameSpecifier,
    NameSyntaxError,
    NamingError,
    parse_name_specifier,
)

from . import fig3_oracle
from .test_naming_properties import name_specifiers

#: Mutation and random-string alphabet: the structural characters
#: (weighted up), the range operators, the wild-card, token characters,
#: and whitespace of every kind the tokenisers must agree on — ASCII,
#: the C0 separators, NEL, NBSP, the ideographic space — plus a
#: non-ASCII letter for the size-in-bytes rule and a lone surrogate (a
#: legal token character that has no UTF-8 size at all).
ALPHABET = list("[]=[]=[]=<>*ab1x \t\n\x1c\x85\xa0　é\ud800")

SEEDS = (
    "[a=b]",
    "[a=b[c=d][e=f]]",
    "[a=<=1][b=>=2[c]]",
    "[service=camera[entity=x][id=*]][room=510]",
    "[ a = b [ c ] ]",
    "[a=b][a=b][a=b]",
    "[a=b" * MAX_NAME_DEPTH + "]" * MAX_NAME_DEPTH,
    "[a=b" * (MAX_NAME_DEPTH + 1) + "]" * (MAX_NAME_DEPTH + 1),
    # Whitespace runs, where a tokeniser that retries from every start
    # goes quadratic: trailing, all-blank, and inside a group.
    "[a=b[c=d]]" + " " * 120,
    "\t" * 120,
    "[a" + " " * 60 + "=" + "\n" * 60 + "b" + "　" * 60 + "[c]" + " " * 60 + "]",
)


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``, in comparable form."""
    try:
        name = parse(text)
    except NamingError as error:
        return type(error)
    return (
        name.to_wire(),
        [(pair.attribute, pair.value) for pair in name.walk()],
        name.canonical_key(),
        name.copy().canonical_key(),
    )


def assert_same(text: str):
    expected = outcome(fig3_oracle.parse_name_specifier, text)
    actual = outcome(parse_name_specifier, text)
    assert actual == expected, f"parsers disagree on {text!r}"
    return actual


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(4)
        if kind == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1:]
        elif kind == 2:
            low, high = sorted((at, rng.randrange(len(text) + 1)))
            text = text[:low] + text[low:high] * 2 + text[high:]
        else:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    return text


def mutation_corpus(count: int, seed: int) -> Iterator[str]:
    """``count`` strings: alternately a seed name with one to three
    character-level edits and a short random string over ALPHABET."""
    rng = random.Random(seed)
    for index in range(count):
        if index % 2:
            yield "".join(
                rng.choice(ALPHABET) for _ in range(rng.randrange(0, 14))
            )
        else:
            yield _mutate(rng, rng.choice(SEEDS))


def _wide_groups() -> Iterator[str]:
    """Sibling groups about 1,000 and 4,000 wide, at the top level and
    under one pair, each as it is and with one attribute repeated two
    thirds of the way along: where a builder that scans its siblings
    goes quadratic, and where a duplicate check that is not one set
    per group misses or misreports."""
    for width in (1_000, 4_000):
        siblings = [f"[a{index}=v]" for index in range(width)]
        repeated = list(siblings)
        repeated[2 * width // 3] = f"[a{width // 3}=w]"
        for group in ("".join(siblings), "".join(repeated)):
            yield group
            yield f"[p=q{group}]"


#: The wide strings every corpus starts with.
WIDE_GROUPS = tuple(_wide_groups())


def _leaf_keys(key: tuple) -> Iterator[tuple]:
    """The leaf keys inside a name's canonical key, in key order."""
    stack = list(key)
    while stack:
        pair_key = stack.pop()
        if pair_key[2]:
            stack.extend(pair_key[2])
        else:
            yield pair_key


def check_corpus(count: int, seed: int = 13) -> Tuple[int, int, int]:
    """Compare the parsers on ``count`` corpus strings — the
    :data:`WIDE_GROUPS`, then mutated and random strings — and return
    (strings checked, strings both parsers accepted, leaf keys shared).

    Equal leaves share one key tuple (``repro.naming.avpair._leaf_key``):
    the one-pass parser keys each leaf as it reads it, the oracle builds
    its name and then keys it, and both must hand back the tuple the
    table holds. *Shared* counts the one-pass parser's leaf keys that
    are the very tuple of the oracle's name for the same text, parsed
    just before; it falls to zero if either way of keying stops
    interning. The random tokens keep filling the table, so it is
    cleared over and over; it may never hold more than its capacity.
    """
    accepted = shared = 0
    corpus = mutation_corpus(count - len(WIDE_GROUPS), seed)
    for text in itertools.chain(WIDE_GROUPS, corpus):
        expected = outcome(fig3_oracle.parse_name_specifier, text)
        actual = outcome(parse_name_specifier, text)
        assert actual == expected, f"parsers disagree on {text!r}"
        assert len(avpair_module._LEAF_KEYS) <= avpair_module.LEAF_KEY_CAPACITY
        if isinstance(actual, type):
            continue
        accepted += 1
        shared += sum(
            ours is theirs
            for ours, theirs in zip(_leaf_keys(actual[2]), _leaf_keys(expected[2]))
        )
    return count, accepted, shared


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
def test_mutation_corpus_slice():
    checked, accepted, shared = check_corpus(5_000)
    assert checked == 5_000
    # The corpus is worth running only while it exercises both sides.
    assert 200 < accepted < 4_000
    # Most accepted names' leaves came back as the oracle's tuples.
    assert shared > accepted


def test_the_regex_and_str_agree_on_what_whitespace_is():
    """The oracle skips ``str.isspace`` characters; the one-pass parser's
    regex skips ``\\s``. They must be the same set on this interpreter."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


# ----------------------------------------------------------------------
# Generated names, rendered every way the grammar allows
# ----------------------------------------------------------------------
_GAPS = st.sampled_from(["", "", "", " ", "\n", "\t ", "　", "\x1c\xa0"])


def _render(draw, name: NameSpecifier) -> str:
    """``name`` as wire text with a drawn run of whitespace at every
    place the grammar permits one, and wild-card values left out
    (``[attr]``) at random."""
    out = []

    def emit(pair):
        out.extend(["[", draw(_GAPS), pair.attribute, draw(_GAPS)])
        if not (pair.value == "*" and draw(st.booleans())):
            out.extend(["=", draw(_GAPS), pair.value, draw(_GAPS)])
        for child in pair.children:
            emit(child)
            out.append(draw(_GAPS))
        out.append("]")

    out.append(draw(_GAPS))
    for root in name._roots:
        emit(root)
        out.append(draw(_GAPS))
    return "".join(out)


_OPERATOR_VALUES = st.sampled_from(["*", "<5", ">5", "<=5", ">=5", "<=", ">="])


@st.composite
def spaced_queries(draw):
    """(name, text): a generated name with some leaf values replaced by
    operators, and one of its many legal spellings."""
    name = draw(name_specifiers())
    for pair in list(name.walk()):
        if pair.is_leaf and draw(st.booleans()):
            pair.value = draw(_OPERATOR_VALUES)
    name = name.copy()  # values were edited in place: rebuild the caches
    return name, _render(draw, name)


@given(spaced_queries())
@settings(max_examples=200, deadline=None)
def test_respaced_names_parse_like_the_oracle(case):
    name, text = case
    wire, order, key, fresh_key = assert_same(text)
    assert wire == name.to_wire()
    assert key == fresh_key == name.canonical_key()
    assert order == [(pair.attribute, pair.value) for pair in name.walk()]


@given(spaced_queries())
@settings(max_examples=100, deadline=None)
def test_wire_text_is_seeded_only_by_compact_input(case):
    name, text = case
    compact = name.to_wire()
    for spelling in (text, compact):
        parsed = parse_name_specifier(spelling)
        assert parsed._key_cache is not None
        if spelling == compact:
            assert parsed.to_wire() is spelling
            assert parsed.wire_size() == len(spelling.encode("utf-8"))
        else:
            assert parsed._wire_cache is None
            assert parsed.to_wire() == compact


# ----------------------------------------------------------------------
# The depth bound and error reporting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gap", ["", " "])
def test_depth_64_parses_and_depth_65_does_not(gap):
    opener = f"[a{gap}={gap}b{gap}"
    at_bound = opener * MAX_NAME_DEPTH + "]" * MAX_NAME_DEPTH
    wire, *_ = assert_same(at_bound)
    assert wire == "[a=b" * MAX_NAME_DEPTH + "]" * MAX_NAME_DEPTH
    over = opener * (MAX_NAME_DEPTH + 1) + "]" * (MAX_NAME_DEPTH + 1)
    assert assert_same(over) is NameSyntaxError
    # Siblings do not count towards depth.
    wide = "[a=b" * (MAX_NAME_DEPTH - 1) + "[c=d][e=f]" + "]" * (MAX_NAME_DEPTH - 1)
    assert_same(wide)


@pytest.mark.parametrize(
    "text",
    [
        "[<=x=5]",          # range fold in an attribute: reserved character
        "[>=]",
        "[a=1[<=b=2]]",
        "[<=x=]",           # ... but a missing value is a syntax error first
        "[<=x= ]",
        "[a=b=c]",
        "[a=<==]",
        "[a=1[b=2][b=3 x]]",  # the error inside the duplicate comes first
        "[a=1[b=2][b=3]]",
        "[a=1][a=2[",
        "[a=1][a=2]",
        "[abc=]",
        "[a=b]]",
        "]",
        "=",
        "[a=b] [",
        "[a =\n<= =]",
    ],
)
def test_error_precedence_matches_the_oracle(text):
    assert isinstance(assert_same(text), type)


#: Shapes of name text around one long whitespace run ``{gap}``: valid
#: and invalid, the run trailing, leading, alone, and at every place
#: inside a group where the grammar lets whitespace stand.
_PADDED = (
    "[a=b]{gap}",
    "{gap}[a=b]",
    "{gap}",
    "[{gap}a{gap}={gap}b{gap}[c{gap}]{gap}]{gap}[d=e]",
    "[a=b]{gap}]",
    "[a{gap}",
    "[a={gap}",
    "[{gap}",
    "[a=b{gap}x]",
)


@pytest.mark.parametrize("shape", _PADDED)
def test_long_whitespace_runs_are_read_in_linear_time(shape):
    """A name section may be any length (u32 offsets, no packet cap), so
    a 200 k-character run of blanks must cost about what 200 k characters
    cost — milliseconds. A tokeniser that re-scans the run from each of
    its characters needs minutes."""
    text = shape.format(gap=" \t\n　" * 50_000)
    started = time.process_time()
    actual = outcome(parse_name_specifier, text)
    assert time.process_time() - started < 2.0
    assert actual == outcome(fig3_oracle.parse_name_specifier, text)
    assert actual == outcome(parse_name_specifier, shape.format(gap=" "))


def test_a_lone_surrogate_is_a_token_character_with_no_wire_size():
    """``str`` callers can hand the parser what UTF-8 cannot carry (a
    packet cannot: ``decode`` reads strict UTF-8). The name parses, as it
    always did, and only seeds no wire text; sizing it is what fails."""
    text = "[a=\ud800[b=c]]"
    assert not isinstance(assert_same(text), type)
    name = parse_name_specifier(text)
    assert name._key_cache is not None and name._wire_cache is None
    assert name.to_wire() == text
    with pytest.raises(UnicodeEncodeError):
        name.wire_size()


def test_syntax_errors_carry_a_position_inside_the_text():
    positioned = 0
    for text in mutation_corpus(2_000, seed=29):
        if outcome(parse_name_specifier, text) is not NameSyntaxError:
            continue
        with pytest.raises(NameSyntaxError) as raised:
            parse_name_specifier(text)
        position = raised.value.position
        assert 0 <= position <= len(text)
        assert f"position {position}" in str(raised.value)
        positioned += 1
    assert positioned > 500
