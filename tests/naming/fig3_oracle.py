"""The Figure 3 oracle: the character-at-a-time recursive-descent parser
that ``repro.naming.parser`` replaced, kept verbatim (imports aside) as
the reference the one-pass parser is differentially tested against.
It builds names through the public constructors only, so nothing it
returns is pre-keyed or pre-sized.

The grammar, with arbitrary whitespace permitted between tokens::

    specifier := group*
    group     := '[' TOKEN ('=' TOKEN)? group* ']'

A group without an explicit ``= value`` (the paper's Floorplan sends
``[location]`` to the Locator service) is parsed as the wild-card value,
since omitted information corresponds to wild-cards throughout INS.
"""

from __future__ import annotations

from repro.naming.avpair import AVPair, RESERVED_CHARACTERS
from repro.naming.errors import NameSyntaxError
from repro.naming.operators import WILDCARD
from repro.naming.specifier import NameSpecifier

#: Maximum av-pair nesting accepted from the wire. The paper observes
#: that depth "will be near-constant and relatively small" (Section
#: 5.1.1); bounding it keeps adversarially deep names from exhausting
#: the recursive parser, graft and lookup paths.
MAX_NAME_DEPTH = 64


class _Tokenizer:
    """Splits wire text into ``[``, ``]``, ``=`` and string tokens."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def _skip_whitespace(self) -> None:
        while self._position < len(self._text) and self._text[self._position].isspace():
            self._position += 1

    def peek(self) -> str:
        """The next token without consuming it; '' at end of input."""
        saved = self._position
        token = self.next()
        self._position = saved
        return token

    def next(self) -> str:
        """Consume and return the next token; '' at end of input."""
        self._skip_whitespace()
        if self._position >= len(self._text):
            return ""
        ch = self._text[self._position]
        if ch in RESERVED_CHARACTERS:
            self._position += 1
            return ch
        start = self._position
        while self._position < len(self._text):
            ch = self._text[self._position]
            if ch in RESERVED_CHARACTERS or ch.isspace():
                break
            self._position += 1
        token = self._text[start:self._position]
        # Range-operator exception: a value like ">=12" embeds the
        # otherwise-reserved '=' in its operator. Fold it back in when
        # the token so far is exactly '<' or '>'.
        if (
            token in ("<", ">")
            and self._position < len(self._text)
            and self._text[self._position] == "="
        ):
            self._position += 1
            while self._position < len(self._text):
                ch = self._text[self._position]
                if ch in RESERVED_CHARACTERS or ch.isspace():
                    break
                self._position += 1
            token = self._text[start:self._position]
        return token

    def expect(self, token: str) -> None:
        found = self.next()
        if found != token:
            raise NameSyntaxError(
                f"expected {token!r}, found {found!r}", self._position
            )


def parse_name_specifier(text: str) -> NameSpecifier:
    """Parse ``text`` into a :class:`NameSpecifier`.

    Raises :class:`NameSyntaxError` on malformed input, including
    trailing garbage after the final group.
    """
    tokenizer = _Tokenizer(text)
    name = NameSpecifier()
    while tokenizer.peek() == "[":
        name.add_pair(_parse_group(tokenizer, depth=1))
    trailing = tokenizer.next()
    if trailing:
        raise NameSyntaxError(
            f"unexpected token {trailing!r} after name-specifier",
            tokenizer.position,
        )
    return name


def _parse_group(tokenizer: _Tokenizer, depth: int) -> AVPair:
    if depth > MAX_NAME_DEPTH:
        raise NameSyntaxError(
            f"name-specifier deeper than {MAX_NAME_DEPTH} levels",
            tokenizer.position,
        )
    tokenizer.expect("[")
    attribute = tokenizer.next()
    if attribute in ("", "[", "]", "="):
        raise NameSyntaxError(
            f"expected attribute token, found {attribute!r}", tokenizer.position
        )
    if tokenizer.peek() == "=":
        tokenizer.expect("=")
        value = tokenizer.next()
        if value in ("", "[", "]", "="):
            raise NameSyntaxError(
                f"expected value token, found {value!r}", tokenizer.position
            )
    else:
        value = WILDCARD  # attribute-only group: omitted value is a wild-card
    pair = AVPair(attribute, value)
    while tokenizer.peek() == "[":
        pair.add_child(_parse_group(tokenizer, depth + 1))
    tokenizer.expect("]")
    return pair
