"""Parser for the wire representation of name-specifiers (Figure 3).

The grammar, with arbitrary whitespace permitted between tokens::

    specifier := group*
    group     := '[' TOKEN ('=' TOKEN)? group* ']'

A group without an explicit ``= value`` (the paper's Floorplan sends
``[location]`` to the Locator service) is parsed as the wild-card value,
since omitted information corresponds to wild-cards throughout INS.

The reader is a single left-to-right pass: one compiled-regex *item*
per ``[attr=value`` opener (with its ``]`` when the group is a leaf) or
``]`` closer, an explicit stack instead of recursion. Because every
group is closed exactly once, after all of its children, the canonical
key of each av-pair is assembled at its ``]`` and the name leaves the
parser already keyed — and therefore sealed (``copy()`` it to edit it);
when the text contained no whitespace and no value-less group it *is*
the compact wire form, and the name leaves already sized as well
(``NameSpecifier._wire_cache``).
"""

from __future__ import annotations

import re

from .avpair import (
    AVPair, _leaf_key, _pair_key, _sibling_key, duplicate_error, validate_token,
)
from .errors import NameSyntaxError
from .operators import WILDCARD
from .specifier import NameSpecifier

#: Maximum av-pair nesting accepted from the wire. The paper observes
#: that depth "will be near-constant and relatively small" (Section
#: 5.1.1); bounding it keeps adversarially deep names from exhausting
#: the graft and lookup paths.
MAX_NAME_DEPTH = 64

# A token is a run of characters that are neither whitespace nor the
# structural ``[ ] =``. Range-operator exception: a token that begins
# with exactly ``<=`` or ``>=`` carries that otherwise-reserved ``=``
# (legal in a value; in an attribute it is rejected below).
_CHAR = r"[^\s\[\]=]"
_TOKEN = rf"[<>]={_CHAR}*|(?![<>]=){_CHAR}+"

#: One item of the grammar. Groups: 1 attribute, 2 value (None for a
#: value-less group), 3 the ``]`` of a leaf group, 4 a ``]`` closing an
#: earlier opener, 5 the first character of anything else — including
#: the ``[`` of an opener whose ``=`` is not followed by a value (the
#: lookahead), so a missing value is a syntax error before the
#: attribute is judged. With no group set the item is the end of the
#: text. After the leading whitespace run there is either a character,
#: which some alternative takes, or the end: the item matches wherever
#: it is tried, so consecutive ``finditer`` matches are contiguous,
#: nothing is skipped unseen, and no whitespace run — however long, and
#: a packet may carry any length — is scanned from more than one start.
_ITEM = re.compile(
    rf"\s*(?:\[\s*({_TOKEN})(?!{_CHAR})(?:\s*=\s*({_TOKEN})|(?!\s*=))(\s*\])?"
    rf"|(\])|(\S)|\Z)"
)
_WHITESPACE = re.compile(r"\s")

_new_pair = AVPair._unchecked


def parse_name_specifier(text: str) -> NameSpecifier:
    """Parse ``text`` into a :class:`NameSpecifier`.

    Raises :class:`NameSyntaxError` on malformed input, including
    trailing garbage after the final group and nesting deeper than
    :data:`MAX_NAME_DEPTH`; :class:`InvalidTokenError` for an attribute
    carrying a reserved character; :class:`DuplicateAttributeError` for
    two siblings classifying the same attribute.
    """
    # Open groups, innermost last, each beside the group it joins; ``group``
    # maps attribute to child for the innermost, so duplicates cost O(1).
    stack: list = []
    group: dict = {}
    compact = True
    for item in _ITEM.finditer(text):
        attribute, value, leaf, closer, stray = item.groups()
        if attribute is not None:
            if len(stack) >= MAX_NAME_DEPTH:
                raise NameSyntaxError(
                    f"name-specifier deeper than {MAX_NAME_DEPTH} levels",
                    item.start(1),
                )
            if value is None:
                value = WILDCARD  # omitted value is a wild-card
                compact = False
            if "=" in attribute:
                validate_token(attribute, "attribute")  # raises
            # The tokens are legal by construction of _TOKEN, so the
            # av-pair is built without re-checking them.
            pair = _new_pair(attribute, value)
            if leaf is None:
                # Unkeyed, so unsealed, until its own ``]``.
                stack.append((pair, group))
                group = {}
                continue
            pair._key_cache = _leaf_key(attribute, value)  # _pair_key of a leaf
        elif closer is not None:
            if not stack:
                raise NameSyntaxError(
                    "unexpected ']' outside any group", item.start(4)
                )
            # Every child of the group is complete and keyed: key it.
            pair, outer = stack.pop()
            pair._children = tuple(group.values())
            pair._key_cache = _pair_key(pair)
            group = outer
            attribute = pair.attribute
        elif stray is None:
            break  # end of text
        else:
            raise NameSyntaxError(
                "expected '[attribute]' or '[attribute=value'"
                if stray == "["
                else f"unexpected {stray!r}",
                item.start(5),
            )
        # The group is complete and keyed: only now does it join its
        # siblings, so that an error inside it is reported before a
        # duplicate of it.
        if attribute in group:
            raise duplicate_error(attribute, stack[-1][0] if stack else None)
        group[attribute] = pair
    if stack:
        raise NameSyntaxError(
            f"expected ']' closing {stack[-1][0].attribute!r}", len(text)
        )
    # Every root is keyed, so the name's key is one sort away;
    # canonical_key() would visit each root again to find that out.
    # It seals the name: what was read off the wire is a value.
    name = NameSpecifier()
    name._roots = tuple(group.values())
    name._key_cache = _sibling_key(name._roots)
    if compact and _WHITESPACE.search(text) is None:
        try:
            size = len(text) if text.isascii() else len(text.encode("utf-8"))
        except UnicodeEncodeError:
            # A lone surrogate: a legal token that has no wire bytes.
            # wire_size() will say so if the name is ever sent.
            return name
        name._wire_cache = (text, size)
    return name
